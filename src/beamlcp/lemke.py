"""Complementary pivoting with an all-ones covering vector, on the condensed tableau.

The system is ``I w - M z - e z0 = q``, with variable ids ``0..n-1`` for w,
``n..2n-1`` for z and ``2n`` for z0.  Of its 2n + 1 columns, the n columns
of the basic variables are unit vectors, so only the condensed (exchange, or
Tucker) tableau is kept: an ``n x (n + 2)`` array with one slot per nonbasic
variable and ``rhs`` last.  ``basis`` maps each row to its basic variable,
``row_of`` and ``slot_of`` map each variable to its row or slot (-1 if none).

A pivot divides the pivot row, puts the leaving variable's column into the
entering variable's slot (``1/piv`` at the pivot row, ``0 - col * (1/piv)``
elsewhere) and makes one rank-1 update.  These are the operations the full
``[w | z | z0 | rhs]`` tableau makes on the columns kept here, on the same
values and in the same order, and the full tableau's basic columns are exact
unit vectors, so z and the pivot count are bit for bit those of the full
layout.

The lexicographic ratio test compares the tied rows by ``[rhs, B^-1] / col``,
and column c of ``B^-1`` is w_c's column.  A nonbasic w_c reads its slot.  A
basic w_c has the column ``e_i`` of its row i, whose ratios are 0 but at i:
it drops row i from the tie when ``1/col_i`` exceeds the tolerance and
leaves the other rows, as the full test decides.

Nothing here assumes symmetry or definiteness of M.  The pivots run on M and
q each divided by a power of two that brings its largest entry into
[0.5, 1), so the absolute ``ZERO_TOL`` means the same at every unit scale of
M and q; the divisions are exact, and z is scaled back the same way.
"""

from __future__ import annotations

import numpy as np

from .dense import _trusted
from .errors import NumericalBreakdown, PivotLimitExceeded, RayTermination
from .lcp import LcpProblem, LcpSolution, _w

__all__ = ["lemke_solve"]

#: Entries at most this large are not pivoted on, and ratios within it of the
#: minimum count as ties.
ZERO_TOL = 1e-10

#: lemke_solve gives up after this many pivots per squared dimension.
MAX_PIVOTS_PER_DIM_SQUARED = 10


def _lex_argmin(C, tied, col, row_of, slot_of, n):
    """Lexicographic minimum of ``B^-1 / col`` over the rows tied on ``rhs``.

    Ties within a scaled epsilon survive to the next component; numerically
    identical vectors (mathematically impossible for an invertible basis)
    fall back to the lowest row index, with the pivot budget as backstop.
    """
    rows = tied.tolist()
    for c in range(n):
        row = row_of[c]
        if row < 0:
            vals = C[tied, slot_of[c]] / col[tied]
            m = vals.min()
            tied = tied[vals <= m + ZERO_TOL * (1.0 + abs(m))]
        elif row in rows and 1.0 / col[row] > ZERO_TOL:
            tied = tied[tied != row]
        else:
            continue
        if tied.size == 1:
            return int(tied[0])
        rows = tied.tolist()
    return rows[0]


def lemke_solve(problem: LcpProblem) -> LcpSolution:
    """Solve an LCP by complementary pivoting.

    Raises:
        RayTermination: the entering column had no positive entry (secondary ray).
        PivotLimitExceeded: ``MAX_PIVOTS_PER_DIM_SQUARED * n**2`` pivots did
            not end the run.
        NumericalBreakdown: the entering column's positive entries were all
            at most ``ZERO_TOL``, or z or w overflows when scaled back.
    """
    n = problem.n
    q = problem.q

    if n == 0 or q.min() >= 0.0:
        return _trusted(LcpSolution, np.zeros(n), q.copy(), 0.0, "lemke", 0)

    max_pivots = MAX_PIVOTS_PER_DIM_SQUARED * n * n

    # Slots: z_0..z_{n-1}, z0, then rhs.
    z0 = 2 * n
    rhs = n + 1
    C = np.empty((n, n + 2))
    scale = np.ldexp(1.0, int(np.frexp(np.abs(problem.M).max())[1]))
    q_scale = np.ldexp(1.0, int(np.frexp(np.abs(q).max())[1]))
    C[:, :n] = -problem.M / scale
    C[:, n] = -1.0
    C[:, rhs] = q / q_scale
    basis = list(range(n))
    row_of = basis + [-1] * (n + 1)
    slot_of = [-1] * n + list(range(n + 1))

    # Initial pivot: z0 enters; the row with the most negative q leaves so the
    # basis becomes feasible.  Among exact ties the largest index is the
    # lexicographic argmin of (q_i, e_i), which keeps every updated row
    # lexicographically positive.
    qmin = C[:, rhs].min()
    tied = np.flatnonzero(C[:, rhs] <= qmin + ZERO_TOL * (1.0 + abs(qmin)))
    r, entering, pivots = int(tied.max()), z0, 0

    while True:
        # Pivot; the leaving variable's column takes the entering one's slot.
        s = slot_of[entering]
        piv = C[r, s]
        C[r] /= piv
        col = C[:, s].copy()
        col[r] = 0.0
        C[:, s] = 0.0
        C[r, s] = 1.0 / piv
        C -= col[:, None] * C[r]
        leaving = basis[r]
        basis[r], row_of[entering], row_of[leaving] = entering, r, -1
        slot_of[entering], slot_of[leaving] = -1, s
        pivots += 1
        if leaving == z0:
            break
        if pivots >= max_pivots:
            raise PivotLimitExceeded(f"no termination within {max_pivots} pivots")

        entering = leaving + n if leaving < n else leaving - n  # its complement
        col = C[:, slot_of[entering]]
        cand = (col > ZERO_TOL).nonzero()[0]
        if cand.size == 0:
            if np.any(col > 0.0):
                raise NumericalBreakdown(
                    "entering column has only sub-tolerance positive entries"
                )
            raise RayTermination(
                f"entering variable {('w', 'z')[entering >= n]}_{entering % n} generated a ray"
            )

        ratios = C[cand, rhs] / col[cand]
        theta = ratios.min()
        tied = cand[ratios <= theta + ZERO_TOL * (1.0 + abs(theta))]

        # Prefer retiring the artificial variable whenever its row attains the
        # minimum ratio: the run ends at a genuine solution.
        rows = tied.tolist()
        r = row_of[z0]
        if r not in rows:
            r = rows[0] if len(rows) == 1 else _lex_argmin(C, tied, col, row_of, slot_of, n)

    z = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        for row, var in enumerate(basis):
            if n <= var < 2 * n:
                z[var - n] = C[row, rhs] * q_scale / scale
        w = _w(problem, z)
    if not (np.isfinite(z).all() and np.isfinite(w).all()):
        raise NumericalBreakdown(f"the solution overflows after {pivots} pivots")
    return _trusted(LcpSolution, z, w, float(z @ w), "lemke", pivots)
