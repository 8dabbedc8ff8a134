"""Block-cascade contact problems solved sequentially.

Blocks are ordered; block i feels earlier blocks only through coupling
matrices Ktilde_ij (j < i), which shift its gap offsets by
s_i = sum_j Ktilde_ij (z_j1 - z_j2).  Because the shift enters the two sides
with opposite signs, the per-block gap sum q_i1 + q_i2 is preserved, each
stage is again a two-sided contact LCP with unchanged clearances, and solving
the blocks in order solves the assembled problem.

The assembled matrix is block lower triangular and NOT symmetric; it is only
ever handed to solvers that do not assume symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactLcp, ContactSolution, _put_two_wall_block, solve_structured
from .dense import as_matrix, as_vector, spd_factor
from .errors import DimensionMismatch, InvariantViolation, NumericalBreakdown
from .lcp import LcpProblem, LcpSolution

__all__ = [
    "CascadeBlock",
    "CascadeProblem",
    "CascadeStage",
    "cascade_stages",
    "solve_cascade",
    "assemble_full",
    "as_lcp_solution",
]


def _block_index(j) -> int:
    """``j`` as a block index: an int or NumPy integer, never a bool, float or string."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
        raise TypeError(f"j must be an integer, got {j!r}")
    return int(j)


@dataclass(frozen=True, eq=False)
class CascadeBlock:
    """One stage: compliance K, gap offsets (q1, q2), couplings to earlier blocks.

    couplings is a sequence of (j, Ktilde) pairs, j the 0-based position of an
    earlier block (an int or NumPy integer, never a bool or float) and Ktilde
    of shape (n_i, n_j).  K must be symmetric positive definite and the wall
    clearance (q1 + q2) / 2, as the block's stage computes it, finite and
    strictly positive; all are enforced at construction.
    """

    K: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    couplings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "K", as_matrix(self.K, "K"))
        object.__setattr__(self, "q1", as_vector(self.q1, "q1"))
        object.__setattr__(self, "q2", as_vector(self.q2, "q2"))
        n = self.K.shape[0]
        if self.K.shape[1] != n:
            raise DimensionMismatch(f"block K must be square, got shape {self.K.shape}")
        if self.q1.shape[0] != n or self.q2.shape[0] != n:
            raise DimensionMismatch(
                f"block K is {n}x{n} but q1/q2 have lengths "
                f"{self.q1.shape[0]}/{self.q2.shape[0]}"
            )
        spd_factor(self.K)
        with np.errstate(over="ignore"):  # an inf clearance is rejected just below
            clearance = 0.5 * (self.q1 + self.q2)
        if not np.all((clearance > 0.0) & (clearance < np.inf)):
            raise InvariantViolation("block clearance (q1 + q2) / 2 must be finite and above 0")
        normalized = []
        seen = set()
        for j, ktilde in self.couplings:
            j = _block_index(j)
            if j in seen:
                raise InvariantViolation(f"duplicate coupling to block {j}")
            seen.add(j)
            normalized.append((j, as_matrix(ktilde, f"Ktilde[{j}]")))
        normalized.sort(key=lambda item: item[0])
        object.__setattr__(self, "couplings", tuple(normalized))

    @property
    def n(self) -> int:
        return self.q1.shape[0]


@dataclass(frozen=True, eq=False)
class CascadeProblem:
    """An ordered tuple of cascade blocks; position in the tuple is the block index."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise InvariantViolation("cascade needs at least one block")
        for i, blk in enumerate(blocks):
            for j, ktilde in blk.couplings:
                if not 0 <= j < i:
                    raise InvariantViolation(
                        f"block {i} couples to block {j}; couplings must point strictly earlier"
                    )
                nj = blocks[j].n
                if ktilde.shape != (blk.n, nj):
                    raise DimensionMismatch(
                        f"coupling {i}<-{j} must have shape ({blk.n}, {nj}), "
                        f"got {ktilde.shape}"
                    )
        object.__setattr__(self, "blocks", blocks)

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def total_dim(self) -> int:
        return 2 * sum(blk.n for blk in self.blocks)


@dataclass(frozen=True, eq=False)
class CascadeStage:
    """Diagnostics for one solved block: the effective contact LCP and shifted offsets."""

    contact: ContactLcp
    solution: ContactSolution
    q_hat1: np.ndarray
    q_hat2: np.ndarray


def cascade_stages(p: CascadeProblem) -> list[CascadeStage]:
    """Solve blocks in order, returning per-stage diagnostics.

    q_hat2 is formed as (q1 + q2) - q_hat1 rather than by shifting q2
    directly.  The two are mathematically identical, but q_hat1 + q_hat2 can
    still round away from q1 + q2, so the stage is built from the block's
    fixed clearance y* = (q1 + q2) / 2 and the offset q_hat1 - y*: its gaps
    then keep gamma_l + gamma_u = 2 y* = q1 + q2 exact in floating point.

    Raises:
        NumericalBreakdown: earlier blocks' forces shift a block's offsets
            beyond the floating-point range.
    """
    stages: list[CascadeStage] = []
    net_forces: list[np.ndarray] = []
    for i, blk in enumerate(p.blocks):
        gap_sum = blk.q1 + blk.q2
        y_star = 0.5 * gap_sum
        shift = np.zeros(blk.n)
        with np.errstate(over="ignore", invalid="ignore"):  # ContactLcp rejects non-finite offsets
            for j, ktilde in blk.couplings:
                shift += ktilde @ net_forces[j]
            q_hat1 = blk.q1 + shift
            q_hat2 = gap_sum - q_hat1
            q_tilde = q_hat1 - y_star
        try:
            contact = ContactLcp(blk.K, q_tilde, y_star)
        except (ValueError, InvariantViolation) as exc:
            raise NumericalBreakdown(f"block {i}: the coupling shift overflows: {exc}") from exc
        sol = solve_structured(contact)
        net_forces.append(sol.d)
        stages.append(CascadeStage(contact, sol, q_hat1, q_hat2))
    return stages


def solve_cascade(p: CascadeProblem) -> list[ContactSolution]:
    """Solve every block in order; returns one ContactSolution per block."""
    return [stage.solution for stage in cascade_stages(p)]


def assemble_full(p: CascadeProblem) -> LcpProblem:
    """Assemble the full (non-symmetric) block lower-triangular LCP."""
    offsets = np.cumsum([0] + [2 * blk.n for blk in p.blocks]).tolist()
    M = np.zeros((offsets[-1], offsets[-1]))
    for blk, o in zip(p.blocks, offsets):
        _put_two_wall_block(M, o, o, blk.K)
        for j, ktilde in blk.couplings:
            _put_two_wall_block(M, o, offsets[j], ktilde)
    q = np.concatenate([v for blk in p.blocks for v in (blk.q1, blk.q2)])
    return LcpProblem(M, q)


def as_lcp_solution(p: CascadeProblem, solutions: list[ContactSolution]) -> LcpSolution:
    """Stack block solutions into a full-problem candidate; each block's gaps are its w."""
    if len(solutions) != p.t:
        raise DimensionMismatch(f"expected {p.t} block solutions, got {len(solutions)}")
    blocks = [s.as_lcp_solution() for s in solutions]
    z = np.concatenate([b.z for b in blocks])
    w = np.concatenate([b.w for b in blocks])
    return LcpSolution(z, w, float(z @ w), "cascade", sum(b.iterations for b in blocks))
