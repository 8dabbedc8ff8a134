"""Two-sided contact LCPs and the structure-exploiting solver.

A stabilizer pinched between two walls with clearances y* on each side gives
the complementarity system

    gamma_l = K d + q_tilde + y*        (gap to the lower wall)
    gamma_u = 2 y* - gamma_l            (gap to the upper wall)
    F_l = max(d, 0),  F_u = max(-d, 0)  (wall forces, d the signed net force)

with F_l . gamma_l = F_u . gamma_u = 0.  Stacked as z = (F_l, F_u),
w = (gamma_l, gamma_u) this is the LCP with the block matrix
M = [[K, -K], [-K, K]] and q = (q_tilde + y*, -q_tilde + y*).

Note on naming: K enters these equations in a compliance role (it maps force
to displacement-like gaps) even though it is assembled from stiffness-style
data; the contracts here only require it to be symmetric positive definite.

The structured solver never forms M.  Because opposing wall forces cannot
both be positive, the problem reduces to the strictly convex nonsmooth
minimization of

    f(d) = 0.5 d'Kd + (q_tilde + y*)'d + sum_i 2 y*_i max(-d_i, 0)

over the signed net force d alone, solved by exact coordinatewise
minimization (a projected Gauss-Seidel with a soft threshold at zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, as_vector, matvec, spd_factor, spd_solve
from .errors import DimensionMismatch, InvariantViolation, MaxIterationsExceeded
from .lcp import LcpProblem, LcpSolution, assemble_w

__all__ = [
    "ContactLcp",
    "ContactSolution",
    "PgsOptions",
    "assemble",
    "feasible_point",
    "gaps",
    "split_signed",
    "solve_structured",
    "force_complementarity",
]


@dataclass(frozen=True, eq=False)
class ContactLcp:
    """n stabilizers between two walls: compliance K, offsets q_tilde, clearances y_star.

    K must be symmetric positive definite and y_star strictly positive; both
    are enforced at construction (the Cholesky factor is kept for reuse).
    """

    K: np.ndarray
    q_tilde: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", as_matrix(self.K, "K"))
        object.__setattr__(self, "q_tilde", as_vector(self.q_tilde, "q_tilde"))
        object.__setattr__(self, "y_star", as_vector(self.y_star, "y_star"))
        n = self.K.shape[0]
        if self.K.shape[1] != n:
            raise DimensionMismatch(f"K must be square, got shape {self.K.shape}")
        if self.q_tilde.shape[0] != n or self.y_star.shape[0] != n:
            raise DimensionMismatch(
                f"K is {n}x{n} but q_tilde has length {self.q_tilde.shape[0]} "
                f"and y_star has length {self.y_star.shape[0]}"
            )
        if n == 0 or np.any(self.y_star <= 0.0):
            raise InvariantViolation("y_star must be strictly positive (n >= 1)")
        object.__setattr__(self, "_chol", spd_factor(self.K))

    @property
    def n(self) -> int:
        return self.y_star.shape[0]


@dataclass(frozen=True, eq=False)
class ContactSolution:
    """Wall forces, wall gaps, and the signed net force d = F_l - F_u."""

    F_l: np.ndarray
    F_u: np.ndarray
    gamma_l: np.ndarray
    gamma_u: np.ndarray
    d: np.ndarray
    sweeps: int = 0
    solver_tag: str = "pgs"

    def __post_init__(self):
        for name in ("F_l", "F_u", "gamma_l", "gamma_u", "d"):
            object.__setattr__(self, name, as_vector(getattr(self, name), name))
        n = self.d.shape[0]
        for name in ("F_l", "F_u", "gamma_l", "gamma_u"):
            if getattr(self, name).shape[0] != n:
                raise DimensionMismatch(f"{name} must have length {n}")

    def as_lcp_solution(self) -> LcpSolution:
        z = np.concatenate([self.F_l, self.F_u])
        w = np.concatenate([self.gamma_l, self.gamma_u])
        return LcpSolution(z, w, float(z @ w), self.solver_tag, self.sweeps)


@dataclass(frozen=True)
class PgsOptions:
    """Controls for solve_structured.

    Convergence is declared when the optimality residual drops below
    ``tol_scale * (1 + ||q_tilde + y_star||_inf)``; the sweep budget is
    ``max_sweeps_per_dim * n``.
    """

    tol_scale: float = 1e-12
    max_sweeps_per_dim: int = 200


def assemble(c: ContactLcp) -> LcpProblem:
    """Stack the two-sided contact data into the block LCP form."""
    n = c.n
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = c.K
    M[:n, n:] = -c.K
    M[n:, :n] = -c.K
    M[n:, n:] = c.K
    q = np.concatenate([c.q_tilde + c.y_star, -c.q_tilde + c.y_star])
    return LcpProblem(M, q)


def split_signed(d) -> tuple[np.ndarray, np.ndarray]:
    """Canonical force split: F_l = max(d, 0), F_u = max(-d, 0)."""
    dv = np.asarray(d, dtype=np.float64)
    return np.maximum(dv, 0.0), np.maximum(-dv, 0.0)


def gaps(c: ContactLcp, d) -> tuple[np.ndarray, np.ndarray]:
    """Wall gaps for a signed net force d.

    gamma_u is formed as 2 y* - gamma_l (one subtraction) so the gap-sum
    identity gamma_l + gamma_u = 2 y* survives floating point.
    """
    dv = as_vector(d, "d")
    gamma_l = matvec(c.K, dv) + c.q_tilde + c.y_star
    gamma_u = 2.0 * c.y_star - gamma_l
    return gamma_l, gamma_u


def feasible_point(c: ContactLcp) -> LcpSolution:
    """A feasible (not generally complementary) point: d = -K^{-1}(q_tilde + y*).

    At this d the lower gap vanishes and the upper gap is 2 y* >= 0, so the
    split forces give z >= 0 with w >= 0.
    """
    d = spd_solve(c._chol, -(c.q_tilde + c.y_star))
    F_l, F_u = split_signed(d)
    z = np.concatenate([F_l, F_u])
    w = assemble_w(assemble(c), z)
    return LcpSolution(z, w, float(z @ w), "feasible-point", 0)


def _sweep(K, c, two_y, tol: float, max_sweeps: int) -> tuple[np.ndarray, int, float]:
    """Run Gauss-Seidel sweeps on d from d = 0; return (d, sweeps, residual).

    Each coordinate step minimizes f exactly in d_i.  The residual is the
    largest distance of 0 from a coordinate's subdifferential of f: |g_i| where
    d_i > 0, |g_i - 2 y*_i| where d_i < 0, and the distance to the interval
    [g_i - 2 y*_i, g_i] where d_i = 0, with g = K d + c.
    """
    n = c.shape[0]
    d = np.zeros(n)
    diag = K.diagonal()
    sweep = 0
    residual = np.inf
    while sweep < max_sweeps:
        for i in range(n):
            r = c[i] + float(K[i] @ d) - diag[i] * d[i]
            cand = -r / diag[i]
            if cand > 0.0:
                d[i] = cand
            else:
                cand = (two_y[i] - r) / diag[i]
                d[i] = cand if cand < 0.0 else 0.0
        sweep += 1

        g = K @ d + c
        dist = np.empty(n)
        pos = d > 0.0
        neg = d < 0.0
        zero = ~(pos | neg)
        dist[pos] = np.abs(g[pos])
        dist[neg] = np.abs(g[neg] - two_y[neg])
        lo = g[zero] - two_y[zero]
        hi = g[zero]
        dist[zero] = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))
        residual = float(dist.max())
        if residual <= tol:
            break

    return d, sweep, residual


def solve_structured(c: ContactLcp, options: PgsOptions | None = None) -> ContactSolution:
    """Solve the contact LCP via coordinatewise minimization over d.

    Raises:
        MaxIterationsExceeded: residual failed to converge within the sweep
            budget; the exception carries the last iterate.
    """
    opts = options or PgsOptions()
    cvec = c.q_tilde + c.y_star
    tol = opts.tol_scale * (1.0 + float(np.abs(cvec).max()))
    max_sweeps = opts.max_sweeps_per_dim * c.n

    d, sweeps, residual = _sweep(c.K, cvec, 2.0 * c.y_star, tol, max_sweeps)
    if residual > tol:
        raise MaxIterationsExceeded(
            f"residual {residual:.3e} above tolerance {tol:.3e} after {sweeps} sweeps",
            last_d=d,
            residual=residual,
        )

    F_l, F_u = split_signed(d)
    gamma_l, gamma_u = gaps(c, d)
    return ContactSolution(F_l, F_u, gamma_l, gamma_u, d, sweeps=sweeps, solver_tag="pgs")


def force_complementarity(sol: ContactSolution) -> float:
    """max_i F_l[i] * F_u[i]; zero for the canonical split."""
    if sol.F_l.size == 0:
        return 0.0
    return float((sol.F_l * sol.F_u).max())
