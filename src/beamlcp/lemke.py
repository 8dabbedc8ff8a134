"""Complementary pivoting with an all-ones covering vector.

The tableau holds the system ``I w - M z - e z0 = q`` with columns ordered
``[w_0..w_{n-1} | z_0..z_{n-1} | z0 | rhs]``.  The w block starts as the
identity and therefore always carries the inverse of the current basis, which
is exactly what the lexicographic ratio test needs: rows are compared via the
augmented vector ``[rhs, w-block] / pivot_entry``.

Nothing here assumes symmetry or definiteness of M.  The pivots run on M and
q each divided by a power of two that brings its largest entry into
[0.5, 1), so the absolute ``ZERO_TOL`` means the same at every unit scale of
M and q; the divisions are exact, and z is scaled back the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBreakdown, PivotLimitExceeded, RayTermination
from .lcp import LcpProblem, LcpSolution, assemble_w

__all__ = ["lemke_solve"]

#: Entries at most this large are not pivoted on, and ratios within it of the
#: minimum count as ties.
ZERO_TOL = 1e-10

#: lemke_solve gives up after this many pivots per squared dimension.
MAX_PIVOTS_PER_DIM_SQUARED = 10


def _lex_argmin(T, cand, col, n):
    """Lexicographic minimum of [rhs, w-block]/pivot over candidate rows.

    Ties within a scaled epsilon survive to the next component; numerically
    identical vectors (mathematically impossible for an invertible basis)
    fall back to the lowest row index, with the pivot budget as backstop.
    """
    rhs_col = 2 * n + 1
    for c in (rhs_col, *range(n)):
        vals = T[cand, c] / T[cand, col]
        m = vals.min()
        keep = vals <= m + ZERO_TOL * (1.0 + abs(m))
        cand = cand[keep]
        if cand.size == 1:
            return int(cand[0])
    return int(cand[0])


def lemke_solve(problem: LcpProblem) -> LcpSolution:
    """Solve an LCP by complementary pivoting.

    Raises:
        RayTermination: the entering column had no positive entry (secondary ray).
        PivotLimitExceeded: ``MAX_PIVOTS_PER_DIM_SQUARED * n**2`` pivots did
            not end the run.
        NumericalBreakdown: only sub-tolerance pivots were available, or the
            ratio test could not be resolved.
    """
    n = problem.n
    q = problem.q

    if n == 0 or q.min() >= 0.0:
        z = np.zeros(n)
        return LcpSolution(z, q.copy(), 0.0, "lemke", 0)

    max_pivots = MAX_PIVOTS_PER_DIM_SQUARED * n * n

    # Columns: w block, z block, z0, rhs.
    z0_col = 2 * n
    rhs_col = 2 * n + 1
    T = np.zeros((n, 2 * n + 2))
    T[:, :n] = np.eye(n)
    scale = np.ldexp(1.0, int(np.frexp(np.abs(problem.M).max())[1]))
    q_scale = np.ldexp(1.0, int(np.frexp(np.abs(q).max())[1]))
    T[:, n : 2 * n] = -problem.M / scale
    T[:, z0_col] = -1.0
    T[:, rhs_col] = q / q_scale
    basis = list(range(n))  # variable ids: 0..n-1 w, n..2n-1 z, 2n is z0

    def pivot(r: int, col: int):
        piv = T[r, col]
        if abs(piv) <= ZERO_TOL:
            raise NumericalBreakdown(
                f"pivot magnitude {abs(piv):.3e} at row {r} below ZERO_TOL {ZERO_TOL:.1e}"
            )
        T[r] /= piv
        T[r, col] = 1.0
        col_vals = T[:, col].copy()
        col_vals[r] = 0.0
        T[:, :] -= np.outer(col_vals, T[r])
        T[:, col] = 0.0
        T[r, col] = 1.0

    # Initial pivot: z0 enters; the row with the most negative q leaves so the
    # basis becomes feasible.  Among exact ties the largest index is the
    # lexicographic argmin of (q_i, e_i), which keeps every updated row
    # lexicographically positive.
    qmin = T[:, rhs_col].min()
    tied = np.flatnonzero(T[:, rhs_col] <= qmin + ZERO_TOL * (1.0 + abs(qmin)))
    r = int(tied.max())
    leaving = basis[r]
    pivot(r, z0_col)
    basis[r] = z0_col
    entering = leaving + n  # complement of the departed w variable
    pivots = 1

    while True:
        if pivots >= max_pivots:
            raise PivotLimitExceeded(f"no termination within {max_pivots} pivots")

        col = entering
        column = T[:, col]
        cand = np.flatnonzero(column > ZERO_TOL)
        if cand.size == 0:
            if np.any(column > 0.0):
                raise NumericalBreakdown(
                    "entering column has only sub-tolerance positive entries"
                )
            raise RayTermination(
                f"entering variable {('w', 'z')[col >= n]}_{col % n} generated a ray"
            )

        ratios = T[cand, rhs_col] / column[cand]
        theta = ratios.min()
        tie_eps = ZERO_TOL * (1.0 + abs(theta))

        # Prefer retiring the artificial variable whenever its row attains the
        # minimum ratio: the run ends at a genuine solution.
        z0_row = basis.index(z0_col)
        if column[z0_row] > ZERO_TOL and T[z0_row, rhs_col] / column[z0_row] <= theta + tie_eps:
            r = z0_row
        else:
            r = _lex_argmin(T, cand, col, n)

        leaving = basis[r]
        pivot(r, col)
        basis[r] = entering
        pivots += 1

        if leaving == z0_col:
            break
        entering = leaving + n if leaving < n else leaving - n

    z = np.zeros(n)
    for row, var in enumerate(basis):
        if n <= var < 2 * n:
            z[var - n] = T[row, rhs_col] * q_scale / scale
    w = assemble_w(problem, z)
    return LcpSolution(z, w, float(z @ w), "lemke", pivots)
