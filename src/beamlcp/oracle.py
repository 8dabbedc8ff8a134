"""Brute-force support enumeration: the reference every solver is checked against.

For each of the 2^n complementary supports S the linear system
M[S,S] z_S = -q_S is solved and the resulting point validated against the
full problem.  Singular supports are probed for consistency; a consistent
singular support carries a whole affine family of candidates, and feasible
representatives of that family are genuine solutions (M z is constant along
the family, so w is shared by all members).

Nothing here is shared with the pivoting or active-set solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DimensionTooLarge
from .lcp import LcpProblem, LcpSolution, assemble_w, validate

__all__ = [
    "SingularSupport",
    "EnumerationResult",
    "Verdict",
    "CertifyResult",
    "enumerate_solutions",
    "certify_unique",
]

#: Relative threshold on the smallest LU pivot below which a support
#: submatrix is treated as singular.
SINGULARITY_RTOL = 1e-10

#: Relative residual threshold for declaring a singular system consistent.
CONSISTENCY_RTOL = 1e-8


@dataclass(frozen=True)
class SingularSupport:
    support: tuple
    consistent: bool


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """All solutions (deduplicated, in support-bitmask order) plus diagnostics."""

    solutions: tuple
    multiplicities: tuple
    singular_supports: tuple
    exhaustive: bool


class Verdict(enum.Enum):
    UNIQUE = "unique"
    MULTIPLE = "multiple"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class CertifyResult:
    verdict: Verdict
    z: np.ndarray | None
    enumeration: EnumerationResult


def _smallest_pivot(mss: np.ndarray) -> float:
    if mss.shape[0] == 1:
        return abs(float(mss[0, 0]))
    _, _, u = scipy.linalg.lu(mss)
    return float(np.abs(np.diag(u)).min())


def _family_representatives(mss: np.ndarray, q_s: np.ndarray, tol: float) -> list[np.ndarray]:
    """Candidate points from the affine solution family of a singular support.

    Returns the nonnegative representative of minimum coordinate sum (when one
    exists), the maximum-sum representative if that LP is bounded, and offsets
    of the minimizer along each null-space direction.  Candidates may still be
    infeasible for the full problem; the caller validates them.
    """
    k = mss.shape[0]
    lp_min = scipy.optimize.linprog(
        np.ones(k), A_eq=mss, b_eq=-q_s, bounds=[(0, None)] * k, method="highs"
    )
    if not lp_min.success:
        return []
    reps = [np.asarray(lp_min.x, dtype=np.float64)]
    lp_max = scipy.optimize.linprog(
        -np.ones(k), A_eq=mss, b_eq=-q_s, bounds=[(0, None)] * k, method="highs"
    )
    if lp_max.success:
        reps.append(np.asarray(lp_max.x, dtype=np.float64))
    null = scipy.linalg.null_space(mss, rcond=SINGULARITY_RTOL)
    base = reps[0]
    step = 1.0 + float(np.abs(base).max(initial=0.0))
    for col in range(null.shape[1]):
        v = null[:, col]
        for sign in (1.0, -1.0):
            cand = base + sign * step * v
            if cand.min(initial=0.0) >= -tol:
                reps.append(cand)
    return reps


def enumerate_solutions(
    problem: LcpProblem, tol: float = 1e-9, cap: int = 14
) -> EnumerationResult:
    """Enumerate all complementary supports of the problem.

    Raises:
        DimensionTooLarge: if the problem dimension exceeds ``cap``.
    """
    n = problem.n
    if n > cap:
        raise DimensionTooLarge(f"dimension {n} exceeds enumeration cap {cap}")

    total = 1 << n
    kept: list[np.ndarray] = []
    counts: list[int] = []
    singulars: list[SingularSupport] = []

    def consider(z: np.ndarray):
        report = validate(problem, z, tol)
        if not report.solved:
            return
        for idx, prev in enumerate(kept):
            if np.abs(z - prev).max(initial=0.0) <= tol:
                counts[idx] += 1
                return
        kept.append(z)
        counts.append(1)

    for mask in range(total):
        support = [i for i in range(n) if mask >> i & 1]
        if not support:
            consider(np.zeros(n))
            continue
        s = np.array(support)
        mss = problem.M[np.ix_(s, s)]
        q_s = problem.q[s]
        scale = float(np.abs(mss).sum(axis=1).max())
        if _smallest_pivot(mss) <= SINGULARITY_RTOL * scale:
            z_ls, *_ = np.linalg.lstsq(mss, -q_s, rcond=None)
            residual = float(np.abs(mss @ z_ls + q_s).max(initial=0.0))
            consistent = residual <= CONSISTENCY_RTOL * (1.0 + float(np.abs(q_s).max()))
            singulars.append(SingularSupport(tuple(support), consistent))
            if consistent:
                for rep in _family_representatives(mss, q_s, tol):
                    z = np.zeros(n)
                    z[s] = rep
                    consider(z)
            continue
        z = np.zeros(n)
        z[s] = np.linalg.solve(mss, -q_s)
        consider(z)

    solutions = tuple(
        LcpSolution(z, assemble_w(problem, z), float(z @ assemble_w(problem, z)), "oracle", total)
        for z in kept
    )
    return EnumerationResult(
        solutions=solutions,
        multiplicities=tuple(counts),
        singular_supports=tuple(singulars),
        exhaustive=True,
    )


def certify_unique(problem: LcpProblem, tol: float = 1e-9, cap: int = 14) -> CertifyResult:
    """Classify the solution set as unique, multiple, or empty.

    Consistent singular supports contribute through their validated family
    representatives (already folded into the enumeration); a support whose
    family never intersects the feasible region does not, by itself, spoil
    uniqueness.
    """
    result = enumerate_solutions(problem, tol=tol, cap=cap)
    if len(result.solutions) == 0:
        return CertifyResult(Verdict.NONE, None, result)
    if len(result.solutions) == 1:
        return CertifyResult(Verdict.UNIQUE, result.solutions[0].z, result)
    return CertifyResult(Verdict.MULTIPLE, None, result)
