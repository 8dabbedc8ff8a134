"""Dense vector/matrix validation and SPD solve kernels (NumPy only).

Everything downstream funnels its array inputs through :func:`as_matrix` /
:func:`as_vector`, so non-finite entries are rejected once, at construction.
Returned arrays are C-contiguous float64 and marked read-only: values are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

__all__ = [
    "as_matrix",
    "as_vector",
    "CholeskyFactor",
    "spd_factor",
    "spd_solve",
    "matvec",
]

#: Relative tolerance for the symmetry check in :func:`spd_factor`.
SYMMETRY_RTOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and normalize a 1-d array of finite floats."""
    a = np.array(x, dtype=np.float64, order="C")
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(a)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a 2-d array of finite floats."""
    m = np.array(a, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(m)


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix."""

    L: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[0]


def spd_factor(a) -> CholeskyFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    No pivoting and no silent symmetrization: an asymmetric input is an
    error, not something to be averaged away.

    Raises:
        NotSymmetric: if ``max|A - A.T|`` exceeds ``SYMMETRY_RTOL * ||A||_inf``.
        NotPositiveDefinite: if a nonpositive pivot is encountered.
    """
    m = as_matrix(a, "spd matrix")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"spd matrix must be square, got shape {m.shape}")
    scale = np.abs(m).sum(axis=1).max() if m.size else 0.0
    skew = np.abs(m - m.T).max() if m.size else 0.0
    if skew > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"matrix is not symmetric: max|A - A.T| = {skew:.3e} "
            f"(threshold {SYMMETRY_RTOL * scale:.3e})"
        )
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return CholeskyFactor(_freeze(np.ascontiguousarray(L)))


def spd_solve(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A: L y = b, then L.T x = y."""
    rhs = as_vector(b, "right-hand side")
    if rhs.shape[0] != factor.n:
        raise DimensionMismatch(
            f"factor is {factor.n}x{factor.n} but right-hand side has length {rhs.shape[0]}"
        )
    y = np.linalg.solve(factor.L, rhs)
    return np.linalg.solve(factor.L.T, y)


def matvec(a, x) -> np.ndarray:
    """Dense matrix-vector product with shape checking."""
    m = np.asarray(a, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or v.ndim != 1:
        raise DimensionMismatch(
            f"matvec expects a matrix and a vector, got shapes {m.shape} and {v.shape}"
        )
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {m.shape[0]}x{m.shape[1]} matrix by length-{v.shape[0]} vector"
        )
    return m @ v
