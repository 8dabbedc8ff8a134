"""Problem and solution containers for w = q + M z complementarity problems.

A pair (q, M) is *feasible* at (z, w) when both vectors are nonnegative, and
*solved* when additionally the complementarity gap z.w vanishes (within a
scaled tolerance).  :func:`validate` is the single arbiter of both predicates;
solvers and the CLI all report through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dense import as_matrix, as_vector
from .errors import DimensionMismatch

__all__ = [
    "LcpProblem",
    "LcpSolution",
    "ValidationReport",
    "assemble_w",
    "validate",
]


@dataclass(frozen=True, eq=False)
class LcpProblem:
    """A linear complementarity problem: find z >= 0 with w = q + M z >= 0, z.w = 0."""

    M: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", as_matrix(self.M, "M"))
        object.__setattr__(self, "q", as_vector(self.q, "q"))
        if self.M.shape[0] != self.M.shape[1]:
            raise DimensionMismatch(f"M must be square, got shape {self.M.shape}")
        if self.M.shape[0] != self.q.shape[0]:
            raise DimensionMismatch(
                f"M is {self.M.shape[0]}x{self.M.shape[1]} but q has length {self.q.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @cached_property
    def max_row_sum(self) -> float:
        """The largest row sum of ``|M|``, computed once: ``M`` is read-only."""
        return float(np.abs(self.M).sum(axis=1).max(initial=0.0))

    @cached_property
    def max_abs_q(self) -> float:
        """``max|q|``, computed once: the scale of every tolerance of the problem."""
        return float(np.abs(self.q).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class LcpSolution:
    """A candidate point (z, w) together with solver metadata."""

    z: np.ndarray
    w: np.ndarray
    complementarity_gap: float
    solver_tag: str
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "z", as_vector(self.z, "z"))
        object.__setattr__(self, "w", as_vector(self.w, "w"))
        if self.z.shape != self.w.shape:
            raise DimensionMismatch(
                f"z and w must have equal length, got {self.z.shape[0]} and {self.w.shape[0]}"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a point against the sign and complementarity conditions.

    ``per_index_violations`` lists (index, kind, magnitude) for every breach
    beyond tolerance, with kind one of ``"z"``, ``"w"``, ``"zw"``.  Indices
    where both z_i and w_i vanish within tolerance are *degenerate*: they are
    listed separately and are not violations.
    """

    min_z: float
    min_w: float
    comp_gap: float
    feasible: bool
    solved: bool
    per_index_violations: tuple = field(default_factory=tuple)
    degenerate_indices: tuple = field(default_factory=tuple)


def assemble_w(problem: LcpProblem, z) -> np.ndarray:
    """Return w = q + M z."""
    return _w(problem, as_vector(z, "z"))


def _w(problem: LcpProblem, z: np.ndarray) -> np.ndarray:
    """w = q + M z for a z that as_vector made."""
    if z.shape[0] != problem.n:
        raise DimensionMismatch(
            f"problem has dimension {problem.n} but z has length {z.shape[0]}"
        )
    return problem.q + problem.M @ z


def w_rounding(problem: LcpProblem, z: np.ndarray):
    """How far the computed ``w = q + M z`` may be off: ``(n + 1) eps (max|q| + r max|z|)``.

    ``r`` is :attr:`LcpProblem.max_row_sum`; ``z`` is one point or a stack of them.
    """
    size = problem.max_abs_q + problem.max_row_sum * np.abs(z).max(axis=-1, initial=0.0)
    return (problem.n + 1) * np.finfo(np.float64).eps * size


def validate(problem: LcpProblem, z, tol: float) -> ValidationReport:
    """Check z (with w recomputed from the problem) at tolerance tol.

    Callers pass a ``tol`` relative to ``||q||_inf``.  The test on ``z`` uses it, the one on
    ``w`` adds ``w``'s rounding ``ρ`` (:func:`w_rounding`), and the gap tests allow
    ``tol (||q||_inf + ||z||_inf) + ρ ||z||_1``.
    """
    zv = as_vector(z, "z")
    w = _w(problem, zv)
    min_z = float(zv.min()) if zv.size else 0.0
    min_w = float(w.min()) if w.size else 0.0
    comp_gap = float(zv @ w)
    rounding = float(w_rounding(problem, zv))
    w_tol = tol + rounding
    gap_tol = tol * (problem.max_abs_q + float(np.abs(zv).max(initial=0.0)))
    gap_tol += rounding * float(np.abs(zv).sum())
    feasible = min_z >= -tol and min_w >= -w_tol
    solved = feasible and abs(comp_gap) <= gap_tol

    violations, degenerate = [], []
    for i, (zi, wi) in enumerate(zip(zv.tolist(), w.tolist())):
        if zi < -tol:
            violations.append((i, "z", -zi))
        if wi < -w_tol:
            violations.append((i, "w", -wi))
        if abs(zi) <= tol and abs(wi) <= w_tol:
            degenerate.append(i)
        elif zi * wi > gap_tol:
            violations.append((i, "zw", zi * wi))

    return ValidationReport(
        min_z=min_z,
        min_w=min_w,
        comp_gap=comp_gap,
        feasible=feasible,
        solved=solved,
        per_index_violations=tuple(violations),
        degenerate_indices=tuple(degenerate),
    )
