"""Dense vector/matrix input validation (NumPy only).

Everything downstream funnels its array inputs through :func:`as_matrix` /
:func:`as_vector`, so non-finite entries are rejected once, at construction.
:func:`spd_factor` is the symmetric-positive-definite check.  Returned arrays
are C-contiguous float64 and marked read-only: values are immutable after
construction.  A container that the package builds from arrays it has
already checked skips the second check through :func:`_trusted`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

__all__ = ["as_matrix", "as_vector", "spd_factor"]

#: Relative tolerance for the symmetry check in :func:`spd_factor`.
SYMMETRY_RTOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked(x, ndim: int, name: str) -> np.ndarray:
    a = np.array(x, dtype=np.float64, order="C")
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(a)


def _trusted(cls, *values):
    """The frozen dataclass ``cls`` holding ``values``, which its caller has checked.

    ``__post_init__``, the check of arrays from outside, does not run; each
    array value is marked read-only, as the check would have left it.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        if isinstance(value, np.ndarray):
            _freeze(value)
        object.__setattr__(obj, name, value)
    return obj


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and normalize a 1-d array of finite floats."""
    return _checked(x, 1, name)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a 2-d array of finite floats."""
    return _checked(a, 2, name)


def spd_factor(a) -> np.ndarray:
    """Lower Cholesky factor L, with L @ L.T = A, of a symmetric positive definite A.

    No pivoting and no silent symmetrization: an asymmetric input is an
    error, not something to be averaged away.  A float64 matrix is read in
    place: ``||A||_inf`` is finite exactly when every entry is, so the full
    input check of :func:`as_matrix` runs only when it is not.

    Raises:
        NotSymmetric: if ``max|A - A.T|`` exceeds ``SYMMETRY_RTOL * ||A||_inf``.
        NotPositiveDefinite: if a nonpositive pivot is encountered.
    """
    m = np.asarray(a, dtype=np.float64)
    scale = np.abs(m).sum(axis=1).max(initial=0.0) if m.ndim == 2 else np.nan
    if not scale < np.inf:
        m = as_matrix(m, "spd matrix")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"spd matrix must be square, got shape {m.shape}")
    skew = np.abs(m - m.T).max(initial=0.0)
    if skew > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"matrix is not symmetric: max|A - A.T| = {skew:.3e} "
            f"(threshold {SYMMETRY_RTOL * scale:.3e})"
        )
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return _freeze(np.ascontiguousarray(L))
