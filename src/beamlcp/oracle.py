"""Brute-force support enumeration: the reference every solver is checked against.

For each of the 2^n complementary supports S the linear system
M[S,S] z_S = -q_S is solved and the resulting point validated against the
full problem.  Singular supports are probed for consistency; a consistent
singular support carries a whole affine family of candidates, and every
point of its feasible part (``z_S >= 0`` and ``w >= 0`` off the support) is
a solution, with ``w = 0`` on the support.

The bitmasks are scanned in chunks of ``16 * BLOCK_SIZE`` consecutive
masks.  Integer operations on a chunk flag the supports that the pair rule
below settles, and the rest are grouped by size (``np.bitwise_count``).
The supports of one size are gathered by flat index into stacked arrays,
one stack per size and chunk unless it would hold more than
``16 * BLOCK_SIZE`` matrix entries, for the singularity test, one stacked
solve (the nonsingular supports) and one stacked SVD of the singular ones
(the consistency test).  The singularity test makes one pass over
``|M_SS|`` and its row sums, which give both the cut and a row diagonal
dominance margin (J. M. Varah, Linear Algebra Appl. 11, 1975), and carries
one index array of undecided supports through three tiers.  The margin,
then the norm of a stacked inverse of what the margin left, clear a support
when they prove ``sigma_min`` above twice the cut; what both left goes to
one stacked SVD, against the cut a per-support loop takes.  So the split is
the SVD's, and each stacked call runs the LAPACK routine of that loop: the
split and the solved points are bit-identical to it.  The consistency test
forms ``lstsq``'s minimum-norm solution from the SVD.  A solved point with
an entry below ``-tol`` is dropped at once, as :func:`validate` would drop
it; the rest are scattered to full length, where the zeros off the support
pass that test too, and a vectorized screen of ``w`` alone drops every
point that :func:`validate` would certainly reject.  Only the survivors and
the family points are validated and deduplicated, one by one in ascending
mask order.  Singular supports are kept as two arrays, their bitmasks in
ascending order and a consistency flag each, with no object per support;
``EnumerationResult.singular_supports`` builds :class:`SingularSupport`
records from them only when it is read.

One exact rule settles many supports without LAPACK.  When rows ``i`` and
``j`` of ``M`` are exact negatives, every support holding both is exactly
singular, and any ``z`` leaves residuals on those rows that sum to
``q_i + q_j``.  If ``|q_i + q_j|`` exceeds ``PAIR_MARGIN`` times the
consistency threshold at ``max|q|``, the support is recorded as singular and
inconsistent straight away, without leaving the chunk.  The paired matrices
of contact, beam and cascade problems have such a pair for every physical
index, so only their 3^n sign patterns reach the blocks; general problems
rarely have any, and all their masks do.

A consistent singular support needs no LP solver: :func:`_family_points`
solves the bases of its family's feasible part in stacked NumPy calls and
returns at most two points, one when that part is a single point.  Such
supports occur on singular PSD problems, and on paired problems whose
``q_i + q_j`` vanishes.  The thresholds are relative to ``max|q|``
(:attr:`LcpProblem.max_abs_q`), so scaling ``q`` by a power of two leaves
each decision as it was.

Nothing here is shared with the pivoting or active-set solvers, and the
module needs NumPy alone.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge
from .lcp import LcpProblem, LcpSolution, assemble_w, validate, w_rounding

__all__ = [
    "SingularSupport",
    "EnumerationResult",
    "Verdict",
    "CertifyResult",
    "enumerate_solutions",
    "certify_unique",
]

#: Relative threshold on the smallest singular value below which a support
#: submatrix is treated as singular; also the cut-off of the singular values
#: that count towards its rank in :func:`_family_points`.
SINGULARITY_RTOL = 1e-10

#: Relative residual threshold for declaring a singular system consistent.
CONSISTENCY_RTOL = 1e-8

#: How far ``|q_i + q_j|`` of an exactly negated row pair must exceed the
#: consistency threshold before its supports are called inconsistent without
#: a solve.  Any ``z`` leaves a residual of at least ``|q_i + q_j| / 2`` on one
#: of the two rows, so 4 keeps the rule twice inside the least-squares test.
PAIR_MARGIN = 4.0

#: The working sizes: a chunk scans ``16 * BLOCK_SIZE`` masks, one stacked
#: singularity test and solve holds at most ``16 * BLOCK_SIZE`` matrix
#: entries (or a single support), and a family solves ``BLOCK_SIZE`` bases
#: together.  Stacked calls amortize NumPy's per-call cost, and the working
#: arrays stay a few MB at dimension 18 however many chunks a problem has.
BLOCK_SIZE = 1024


@dataclass(frozen=True)
class SingularSupport:
    support: tuple
    consistent: bool


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Isolated solutions and up to two points per family (deduplicated, in mask order).

    The singular supports are kept as arrays: ``singular_masks`` holds their
    bitmasks in ascending order (bit ``i`` set when index ``i`` is in the
    support) and ``singular_consistent`` whether each system is consistent.
    ``singular_supports`` builds the same list as :class:`SingularSupport`
    records when it is read.
    """

    solutions: tuple
    multiplicities: tuple
    singular_masks: np.ndarray
    singular_consistent: np.ndarray

    @property
    def singular_supports(self) -> tuple:
        """One :class:`SingularSupport` per singular support, in ascending mask order."""
        masks = self.singular_masks
        bits = (masks[:, None] >> np.arange(int(masks.max(initial=0)).bit_length())) & 1
        members = np.nonzero(bits)[1].tolist()
        ends = np.cumsum(bits.sum(axis=1)).tolist()
        return tuple(
            SingularSupport(tuple(members[start:end]), ok)
            for start, end, ok in zip([0] + ends, ends, self.singular_consistent.tolist())
        )


class Verdict(enum.Enum):
    UNIQUE = "unique"
    MULTIPLE = "multiple"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class CertifyResult:
    verdict: Verdict
    z: np.ndarray | None
    enumeration: EnumerationResult


def _smallest_singular_values(stack: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix in a (B, k, k) stack; see :func:`_singular`."""
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _singular(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (B, k, k) stack is singular, as its SVD decides.

    The SVD's cut is ``SINGULARITY_RTOL`` times the largest absolute row sum, and a matrix
    is singular when ``sigma_min <= cut``.  Two bounds prove ``sigma_min`` above twice the
    cut, far beyond rounding, through ``sigma_min >= 1 / (sqrt(k) ||inv||_inf)``, and a
    matrix that either one clears never reaches the SVD.  The first needs no inverse: the
    row dominance margin ``min_i(2|a_ii| - sum_j |a_ij|)`` is below ``1 / ||inv||_inf``
    (J. M. Varah, "A lower bound for the smallest singular value of a matrix", Linear
    Algebra Appl. 11, 1975), so a margin above ``2 sqrt(k) cut`` clears the matrix.  The
    matrices it leaves are inverted, and ``2 sqrt(k) ||inv||_inf cut < 1`` clears them.
    Both bounds take the cut from the row sums of ``|a|`` that the margin uses.  These
    ``einsum`` sums may differ from ``np.sum``'s in the last bits, by at most ``k eps``
    relative since the terms are nonnegative, so a matrix cleared at twice this cut still
    has ``sigma_min`` above the loop's.  One index array, ``rest``, carries the undecided
    matrices from the margin to the inverse (an exactly zero LU pivot leaves it as it is)
    to one SVD call, whose cut comes from ``np.sum``'s row sums, as a per-support loop
    takes it.  A tier runs only on a nonempty ``rest``.
    """
    k = stack.shape[-1]
    absolute = np.abs(stack)
    sums = np.einsum("bij->bi", absolute)
    bound = (2.0 * k**0.5 * SINGULARITY_RTOL) * sums.max(axis=1)
    diagonal = absolute.diagonal(0, 1, 2)
    rest = (sums - diagonal >= diagonal - bound[:, None]).any(axis=1).nonzero()[0]
    singular = np.zeros(stack.shape[0], dtype=bool)
    if rest.size:  # what the margin left
        try:
            inverse = np.abs(np.linalg.inv(stack[rest]))
            with np.errstate(over="ignore"):  # an overflow gives inf, which goes to the SVD
                rest = rest[~(np.einsum("bij->bi", inverse) * bound[rest, None] < 1.0).all(axis=1)]
        except np.linalg.LinAlgError:  # an exactly zero LU pivot: the SVD decides all of rest
            pass
    if rest.size:  # what both bounds left
        cut = SINGULARITY_RTOL * absolute[rest].sum(axis=2).max(axis=1)
        singular[rest] = _smallest_singular_values(stack[rest]) <= cut
    return singular


def _lstsq_consistent(stack: np.ndarray, q_s: np.ndarray) -> np.ndarray:
    """Whether each system ``stack[b] z = -q_s[b]`` is consistent.

    The minimum-norm least-squares solution is built from one stacked SVD
    with ``lstsq``'s default cut-off (singular values at most
    ``eps * k`` times the largest count as zero), and the system is
    consistent when its residual is at most ``CONSISTENCY_RTOL`` times
    ``max|q_s|``; a homogeneous system leaves no residual and is consistent.
    """
    k = stack.shape[-1]
    u, s, vt = np.linalg.svd(stack)
    kept = s > np.finfo(np.float64).eps * k * s[:, :1]
    coef = (u.transpose(0, 2, 1) @ -q_s[..., None])[..., 0]
    coef = np.divide(coef, s, out=np.zeros_like(coef), where=kept)
    z = vt.transpose(0, 2, 1) @ coef[..., None]
    residual = np.abs((stack @ z)[..., 0] + q_s).max(axis=1)
    return residual <= CONSISTENCY_RTOL * np.abs(q_s).max(axis=1)


def _independent_rows(a: np.ndarray, r: int) -> list[int]:
    """``r`` independent rows of ``a``, in the order taken, by pivoted Gram–Schmidt.

    Each step takes the row with the largest part outside the span of the
    rows already taken (the first one on ties) and projects it out of all.
    """
    rest = a.copy()
    rows = []
    for _ in range(r):
        i = int(np.argmax(np.einsum("ij,ij->i", rest, rest)))
        rows.append(i)
        u = rest[i] / np.linalg.norm(rest[i])
        rest -= np.outer(rest @ u, u)
    return rows


def _basic_solutions(a: np.ndarray, b: np.ndarray, rows: list[int], floor: float, slack: float):
    """Nonnegative basic solutions of ``a x = b``, as stacked chunks of points.

    ``rows`` are ``r`` independent rows of ``a``.  For every ``r``-column
    subset ``B``, in lexicographic order, ``a[rows, B] x_B = b[rows]`` is
    solved with the other entries of ``x`` at zero.  A basis is skipped when
    the smallest singular value of ``a[rows, B]`` is at most
    ``SINGULARITY_RTOL`` times the largest absolute row sum of ``a[rows]``.
    A point is kept when no entry is below ``-min(floor, r eps κ max|x|)``,
    with ``κ`` the condition number of its basis (the rounding a solve can
    leave on an entry whose exact value is 0), and ``max|a x - b| <= slack``.
    The bases go through one stacked SVD and one stacked solve per chunk of
    ``BLOCK_SIZE``, and the kept points of each chunk are yielded in basis
    order.
    """
    k, r = a.shape[1], len(rows)
    if not r:  # rank 0: x = 0 is the only basic solution
        if np.abs(b).max(initial=0.0) <= slack:
            yield np.zeros((1, k))
        return
    a_r, b_r = a[rows], b[rows]
    cut = SINGULARITY_RTOL * float(np.abs(a_r).sum(axis=1).max())
    subsets = itertools.combinations(range(k), r)
    while chunk := list(itertools.islice(subsets, BLOCK_SIZE)):
        chunk = np.array(chunk, dtype=np.intp)
        stack = a_r[:, chunk].transpose(1, 0, 2)
        s = np.linalg.svd(stack, compute_uv=False)
        regular = s[:, -1] > cut
        chunk, stack, s = chunk[regular], stack[regular], s[regular]
        x = np.zeros((chunk.shape[0], k))
        x[np.arange(chunk.shape[0])[:, None], chunk] = np.linalg.solve(stack, b_r[:, None])[..., 0]
        rounding = r * np.finfo(np.float64).eps * s[:, 0] / s[:, -1] * np.abs(x).max(axis=1)
        nonnegative = (x >= -np.minimum(floor, rounding)[:, None]).all(axis=1)
        yield x[nonnegative & (np.abs(x @ a.T - b).max(axis=1) <= slack)]


def _family_points(problem: LcpProblem, idx: np.ndarray, tol: float) -> list[np.ndarray]:
    """At most two solutions from the family of the consistent singular support ``idx``.

    Its feasible part is ``P_S = {y >= 0 : a y = -q}``, column ``i`` of ``a`` being
    ``M[:, i]`` on ``S`` and ``-e_i`` off it (``y`` is ``z`` on ``S``, ``w`` off it), and all
    of it solves the LCP.  Its vertices are the basic solutions on ``rank M[S, S]``
    independent rows of ``M[S, S]`` plus the other rows; with the row ``s * sum(v_S) = s``
    (``s`` the largest row sum of ``|a|``), those of ``a v = 0`` are its rays.  ``P_S`` is
    pointed, so this returns nothing, its first vertex, the first two vertices more than
    ``tol`` apart, or the first vertex and a step along a ray, of length ``2 max|vertex|``
    or more (1 when ``q = 0``).
    """
    n, q = problem.n, problem.q
    on = np.zeros(n, dtype=bool)
    on[idx] = True
    mss = problem.M[np.ix_(idx, idx)]
    s = np.linalg.svd(mss, compute_uv=False)
    rank = int((s > SINGULARITY_RTOL * s[0]).sum())
    rows = sorted([*idx[_independent_rows(mss, rank)], *np.flatnonzero(~on)])
    a = np.where(on, problem.M, -np.eye(n))
    basic = _basic_solutions(a, -q, rows, tol, CONSISTENCY_RTOL * problem.max_abs_q)
    z = np.where(on, np.vstack([np.empty((0, n)), *basic]), 0.0)
    if not len(z):
        return []
    apart = np.flatnonzero(np.abs(z - z[0]).max(axis=1) > tol)
    if apart.size:
        return list(z[[0, apart[0]]])
    scale = float(np.abs(a).sum(axis=1).max()) or 1.0
    rays = _basic_solutions(np.vstack([a, scale * on]), np.append(np.zeros(n), scale), rows + [n],
                            np.inf, CONSISTENCY_RTOL * scale)
    ray = next((np.where(on, v[0], 0.0) for v in rays if len(v)), None)
    if ray is None:
        return [z[0].copy()]
    step = 2.0 * max(float(np.abs(z[0]).max()), n * tol) or 1.0  # more than tol from z[0]
    return [z[0].copy(), z[0] + step * ray]


def _screen(problem: LcpProblem, z: np.ndarray, tol: float) -> np.ndarray:
    """Rows of the (B, n) stack ``z`` that :func:`validate` could accept.

    Every row already has ``z >= -tol``, so only ``w`` is tested.  It comes from one product
    for the stack; it and ``validate``'s own are each within :func:`w_rounding` of the exact
    ``w``, which ``validate`` allows again, so a slack of four times it loses no good point.
    """
    w = problem.q + z @ problem.M.T
    slack = 4.0 * w_rounding(problem, z)
    return (w >= -(tol + slack)[:, None]).all(axis=1)


def _negated_pairs(problem: LcpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, whose supports are inconsistent by rule.

    Row ``j`` of ``M`` is exactly ``-M[i]``, and ``|q_i + q_j|`` exceeds
    ``PAIR_MARGIN`` times the consistency threshold at ``max|q|``.  Returned
    as two index arrays of equal length.
    """
    m, q = problem.M, problem.q
    negated = np.triu((m[:, None, :] == -m[None, :, :]).all(axis=2), k=1)
    threshold = PAIR_MARGIN * CONSISTENCY_RTOL * problem.max_abs_q
    far = np.abs(q[:, None] + q[None, :]) > threshold
    return np.nonzero(negated & far)


def _block_outcomes(
    problem: LcpProblem, masks: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """What the supports ``masks`` contribute: ``(singular, consistent, candidates)``.

    ``singular`` and ``consistent`` are boolean arrays over ``masks`` (a
    nonsingular support is not consistent).  ``candidates`` are the
    full-length points still to validate, in ascending mask order: the
    screened solution of each nonsingular support and the family points of
    each consistent singular one.  ``masks`` are ascending and nonzero, and
    none holds a pair of :func:`_negated_pairs`.  The supports of one size
    share one singularity test, solve and screen, split only where their
    matrices would hold more than ``16 * BLOCK_SIZE`` entries, and each
    stack is split by index into its singular and nonsingular supports.
    Only the solved points with no entry below ``-tol`` are scattered and
    screened: that is :func:`validate`'s ``z`` test, which the zeros off the
    support pass, so the screen tests ``w`` alone.
    """
    n = problem.n
    flat = problem.M.ravel()
    places = np.arange(n)
    sizes = np.bitwise_count(masks)
    singular = np.zeros(masks.size, dtype=bool)
    consistent = np.zeros(masks.size, dtype=bool)
    found = []
    for k in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == k)
        per_call = max(1, 16 * BLOCK_SIZE // k**2)
        for first in range(0, group.size, per_call):
            rows = group[first:first + per_call]
            idx = np.nonzero((masks[rows, None] >> places) & 1)[1].reshape(-1, k)
            mss = flat.take(idx[:, :, None] * n + idx[:, None, :])
            q_s = problem.q[idx]
            sing = _singular(mss)
            if sing.any():
                bad, good = np.flatnonzero(sing), np.flatnonzero(~sing)
                singular[rows[bad]] = True
                ok = _lstsq_consistent(mss[bad], q_s[bad])
                consistent[rows[bad]] = ok
                for j in bad[ok].tolist():
                    found.append((rows[j], _family_points(problem, idx[j], tol)))
                rows, idx, mss, q_s = rows[good], idx[good], mss[good], q_s[good]
            sol = np.linalg.solve(mss, -q_s[..., None])[..., 0]
            signed = (sol >= -tol).all(axis=1).nonzero()[0]  # validate's z test, on S
            if not signed.size:
                continue
            rows, idx = rows[signed], idx[signed]
            z = np.zeros((rows.size, n))
            z[np.arange(rows.size)[:, None], idx] = sol[signed]
            for j in np.flatnonzero(_screen(problem, z, tol)).tolist():
                found.append((rows[j], [z[j].copy()]))
    found.sort(key=lambda item: item[0])
    return singular, consistent, [z for _, points in found for z in points]


def enumerate_solutions(
    problem: LcpProblem, tol: float, cap: int = 14
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
    singular_masks = [np.empty(0, dtype=np.int64)]
    singular_consistent = [np.empty(0, dtype=bool)]

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

    pairs = np.transpose(_negated_pairs(problem)).tolist()
    consider(np.zeros(n))
    chunk = 16 * BLOCK_SIZE
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        singular = np.zeros(masks.size, dtype=bool)
        for i, j in pairs:
            singular |= ((masks >> i) & (masks >> j) & 1).astype(bool)
        consistent = np.zeros(masks.size, dtype=bool)
        unpaired = np.flatnonzero(~singular)
        singular[unpaired], consistent[unpaired], candidates = _block_outcomes(
            problem, masks[unpaired], tol
        )
        for z in candidates:
            consider(z)
        singular_masks.append(masks[singular])
        singular_consistent.append(consistent[singular])

    solutions = []
    for z in kept:
        w = assemble_w(problem, z)
        solutions.append(LcpSolution(z, w, float(z @ w), "oracle", total))
    return EnumerationResult(
        solutions=tuple(solutions),
        multiplicities=tuple(counts),
        singular_masks=np.concatenate(singular_masks),
        singular_consistent=np.concatenate(singular_consistent),
    )


def certify_unique(problem: LcpProblem, tol: float, cap: int = 14) -> CertifyResult:
    """Classify the solution set as unique, multiple, or empty.

    Consistent singular supports contribute their validated family points
    (already folded into the enumeration): two when the family's feasible
    part is a segment or ray of solutions, none when it is empty.
    """
    result = enumerate_solutions(problem, tol=tol, cap=cap)
    if len(result.solutions) == 0:
        return CertifyResult(Verdict.NONE, None, result)
    if len(result.solutions) == 1:
        return CertifyResult(Verdict.UNIQUE, result.solutions[0].z, result)
    return CertifyResult(Verdict.MULTIPLE, None, result)
