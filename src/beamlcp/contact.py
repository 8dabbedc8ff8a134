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

The structured solver works on K, and assembles M only to bound rounding
when its plain residual test fails.  Because opposing wall forces cannot
both be positive, the problem reduces to the strictly convex nonsmooth
minimization of

    f(d) = 0.5 d'Kd + (q_tilde + y*)'d + sum_i 2 y*_i max(-d_i, 0)

over the signed net force d alone.  With g = K d + (q_tilde + y*), d solves
it exactly when g_i = 0 where d_i > 0, g_i = 2 y*_i where d_i < 0, and
0 <= g_i <= 2 y*_i where d_i = 0.  A Lawson-Hanson active-set method finds
that point in finitely many linear solves on the signed set of nonzero d_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import _trusted, as_matrix, as_vector, spd_factor
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    MaxIterationsExceeded,
    NumericalBreakdown,
)
from .lcp import LcpProblem, LcpSolution, w_rounding

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

#: Linear solves allowed per unknown before solve_structured gives up.  The
#: active set took at most 3.6 n solves on every beam and generated problem
#: tried (random beams need the most); it only stops a cycle rounding caused.
MAX_SOLVES_PER_DIM = 10


@dataclass(frozen=True, eq=False)
class ContactLcp:
    """n stabilizers between two walls: compliance K, offsets q_tilde, clearances y_star.

    K must be symmetric positive definite, y_star strictly positive, and the
    solver data q_tilde + y_star, y_star - q_tilde and 2 y_star finite; all
    are enforced at construction.
    """

    K: np.ndarray
    q_tilde: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", as_matrix(self.K, "K"))
        object.__setattr__(self, "q_tilde", as_vector(self.q_tilde, "q_tilde"))
        object.__setattr__(self, "y_star", as_vector(self.y_star, "y_star"))
        _check_contact(self.K, self.q_tilde, self.y_star)

    @property
    def n(self) -> int:
        return self.y_star.shape[0]


def _check_contact(K: np.ndarray, q_tilde: np.ndarray, y_star: np.ndarray) -> None:
    """ContactLcp's checks after as_matrix/as_vector.

    Shapes, y* > 0, finite solver data, and K positive definite: the one
    factorization of K.
    """
    n = K.shape[0]
    if K.shape[1] != n:
        raise DimensionMismatch(f"K must be square, got shape {K.shape}")
    if q_tilde.shape[0] != n or y_star.shape[0] != n:
        raise DimensionMismatch(
            f"K is {n}x{n} but q_tilde has length {q_tilde.shape[0]} "
            f"and y_star has length {y_star.shape[0]}"
        )
    if n == 0 or (y_star <= 0.0).any():
        raise InvariantViolation("y_star must be strictly positive (n >= 1)")
    _check_offsets(q_tilde, y_star)
    spd_factor(K)


def _check_offsets(q_tilde: np.ndarray, y_star: np.ndarray) -> None:
    """Require the solver data q_tilde + y_star, y_star - q_tilde and 2 y_star to be finite."""
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        data = np.concatenate([q_tilde + y_star, y_star - q_tilde, 2.0 * y_star])
    if not np.isfinite(data).all():
        raise InvariantViolation("q_tilde + y_star, y_star - q_tilde and 2 y_star must be finite")


def _contact_lcp(K: np.ndarray, q_tilde: np.ndarray, y_star: np.ndarray) -> ContactLcp:
    """The ContactLcp of arrays already made by as_matrix/as_vector, checked once."""
    _check_contact(K, q_tilde, y_star)
    return _trusted(ContactLcp, K, q_tilde, y_star)


@dataclass(frozen=True, eq=False)
class ContactSolution:
    """Wall forces, wall gaps, and the signed net force d = F_l - F_u.

    ``sweeps`` is the solver's work count: linear solves for solve_structured.
    """

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
        return _trusted(LcpSolution, z, w, float(z @ w), self.solver_tag, self.sweeps)


@dataclass(frozen=True)
class PgsOptions:
    """Controls for solve_structured.

    An index joins the active set while g lies more than ``tol_scale * max|q|``
    outside [0, 2 y*] there (q the assembled LCP's).  A solution's optimality
    residual must be within that plus g's rounding, as ``validate`` allows w's.
    """

    tol_scale: float = 1e-12


def _put_two_wall_block(M: np.ndarray, row: int, col: int, k: np.ndarray) -> None:
    """Write the two-wall block [[k, -k], [-k, k]] into M with its corner at (row, col)."""
    ni, nj = k.shape
    top, bottom = slice(row, row + ni), slice(row + ni, row + 2 * ni)
    left, right = slice(col, col + nj), slice(col + nj, col + 2 * nj)
    M[top, left] = M[bottom, right] = k
    M[top, right] = M[bottom, left] = -k


def assemble(c: ContactLcp) -> LcpProblem:
    """Stack the two-sided contact data into the block LCP form."""
    M = np.empty((2 * c.n, 2 * c.n))
    _put_two_wall_block(M, 0, 0, c.K)
    q = np.concatenate([c.q_tilde + c.y_star, -c.q_tilde + c.y_star])
    return _trusted(LcpProblem, M, q)  # K and q_tilde +- y_star were checked finite


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
    if dv.shape[0] != c.n:
        raise DimensionMismatch(f"K is {c.n}x{c.n} but d has length {dv.shape[0]}")
    return _gaps(c, dv)


def _gaps(c: ContactLcp, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gamma_l = c.K @ d + c.q_tilde + c.y_star
    return gamma_l, 2.0 * c.y_star - gamma_l


def feasible_point(c: ContactLcp) -> LcpSolution:
    """A feasible (not generally complementary) point: d = -K^{-1}(q_tilde + y*).

    At this d the lower gap vanishes and the upper gap is 2 y* >= 0, so the
    split forces give z >= 0 with w >= 0.
    """
    d = np.linalg.solve(c.K, -(c.q_tilde + c.y_star))
    z = np.concatenate(split_signed(d))
    w = np.concatenate(gaps(c, d))
    return LcpSolution(z, w, float(z @ w), "feasible-point", 0)


def _residual(K, c, two_y, d) -> float:
    """Largest distance of 0 from a coordinate's subdifferential of f at d.

    With g = K d + c this is |g_i| where d_i > 0, |g_i - 2 y*_i| where
    d_i < 0, and the distance to the interval [g_i - 2 y*_i, g_i] where d_i = 0.
    """
    g = K @ d + c
    upper = g - two_y
    lo = np.where(d > 0.0, g, upper)
    hi = np.where(d < 0.0, upper, g)
    return float(np.maximum(np.maximum(lo, -hi), 0.0).max())


def _active_set(K, c, two_y, tol: float, max_solves: int) -> tuple[np.ndarray, int]:
    """Minimize f from d = 0 by a signed Lawson-Hanson active set; return (d, solves).

    Each outer step gives the free index whose g_i lies furthest outside
    [0, 2 y*_i] the sign that decreases f (+ below the interval, - above it)
    and solves K[P,P] d_P = t_P - c_P on the signed set P, where t_i is 0 for
    + and 2 y*_i for -.  If some entry of that solution has the wrong sign, d
    moves toward it until the first entry of P reaches zero, and every entry
    that did leaves P.  f decreases monotonically, so no set repeats.
    """
    n = c.shape[0]
    d = np.zeros(n)
    sign = np.zeros(n)
    rhs = np.empty(n)  # t_i - c_i, set when index i joins P
    solves = 0
    while solves < max_solves:
        g = K @ d + c
        outside = np.maximum(-g, g - two_y)
        outside[sign != 0.0] = 0.0
        j = int(outside.argmax())
        if outside[j] <= tol:
            break
        if g[j] < 0.0:
            sign[j], rhs[j] = 1.0, 0.0 - c[j]
        else:
            sign[j], rhs[j] = -1.0, two_y[j] - c[j]
        while solves < max_solves:
            P = sign.nonzero()[0]
            s = sign[P]
            z = np.linalg.solve(K.take(P, 0).take(P, 1), rhs[P])
            solves += 1
            sz = s * z
            if (sz > 0.0).all():
                d[P] = z
                break
            dP = d[P]
            ratio = np.where(sz <= 0.0, dP / np.where(dP == z, 1.0, dP - z), np.inf)
            alpha = ratio.min()
            dP += alpha * (z - dP)
            dP[(ratio <= alpha) | (s * dP <= 0.0)] = 0.0
            d[P] = dP
            sign[P[dP == 0.0]] = 0.0
    return d, solves


def solve_structured(c: ContactLcp, options: PgsOptions | None = None) -> ContactSolution:
    """Solve the contact LCP exactly by an active-set method over d.

    ``ContactSolution.sweeps`` counts the linear solves on the active set.
    The final residual test allows g's rounding, as ``validate`` allows w's.

    Raises:
        MaxIterationsExceeded: ``MAX_SOLVES_PER_DIM * n`` solves did not reach
            the tolerance plus that rounding; the exception carries the last iterate.
        NumericalBreakdown: the forces or the gaps of the solution overflow.
    """
    opts = options or PgsOptions()
    cvec = c.q_tilde + c.y_star
    two_y = 2.0 * c.y_star
    tol = opts.tol_scale * float(max(np.abs(cvec).max(), np.abs(two_y - cvec).max()))

    d, solves = _active_set(c.K, cvec, two_y, tol, MAX_SOLVES_PER_DIM * c.n)
    if not np.isfinite(d).all():
        raise NumericalBreakdown(f"the net forces overflow in {solves} solves")
    residual = _residual(c.K, cvec, two_y, d)
    if residual > tol:
        tol += float(w_rounding(assemble(c), np.concatenate(split_signed(d))))
    if residual > tol:
        raise MaxIterationsExceeded(
            f"residual {residual:.3e} above tolerance plus rounding {tol:.3e} in {solves} solves",
            last_d=d,
            residual=residual,
        )

    gamma_l, gamma_u = _gaps(c, d)
    if not np.isfinite(gamma_u).all():  # gamma_u is not finite where gamma_l is not
        raise NumericalBreakdown(f"the wall gaps overflow in {solves} solves")
    F_l, F_u = split_signed(d)
    return _trusted(ContactSolution, F_l, F_u, gamma_l, gamma_u, d, solves, "pgs")


def force_complementarity(sol: ContactSolution) -> float:
    """max_i F_l[i] * F_u[i]; zero for the canonical split."""
    if sol.F_l.size == 0:
        return 0.0
    return float((sol.F_l * sol.F_u).max())
