"""The oracle agrees with the routines it replaced and with LP references.

SciPy is a test-only reference; the package itself never imports it.
From ``scipy.linalg``, the smallest LU pivot was the singularity test:
patching it back into the oracle reproduces its enumeration exactly, and
``null_space`` at the oracle's cut-off gives the rank of ``M_SS`` that the
family search works with.  From ``scipy.optimize``, HiGHS checks the
family search: the feasible part ``P_S`` of a consistent singular support's
family is empty exactly when its LP is infeasible, and a single point
exactly when no coordinate of ``z`` spreads over it.  HiGHS is also the
independent referee on PSD and skew-PSD integer LCPs: their solution set is
a polyhedron (Mangasarian 1988), so LPs over it say whether the solution is
unique, with no use of the oracle beyond one of its solutions.

``loop_enumeration`` is the other reference: the per-support loop that the
blocked, stacked enumeration replaced.  The two must agree bit for bit.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlcp import (
    LcpProblem,
    Verdict,
    assemble,
    assemble_full,
    certify_unique,
    enumerate_solutions,
    oracle,
    to_contact_lcp,
)
from beamlcp.cli import _tolerance
from beamlcp.generate import gen_beam, gen_cascade, gen_contact, gen_general
from beamlcp.lcp import assemble_w, validate, w_rounding


def lu_smallest_pivot(mss: np.ndarray) -> float:
    if mss.shape[0] == 1:
        return abs(float(mss[0, 0]))
    _, _, u = scipy.linalg.lu(mss)
    return float(np.abs(np.diag(u)).min())


def lu_smallest_pivots(stack: np.ndarray) -> np.ndarray:
    return np.array([lu_smallest_pivot(mss) for mss in stack])


def lp_feasible_part(problem: LcpProblem, idx: np.ndarray) -> dict:
    """``linprog`` keywords for ``P_S = {z_S >= 0 : M_SS z_S = -q_S, q_Sc + M_Sc,S z_S >= 0}``."""
    rest = np.setdiff1d(np.arange(problem.n), idx)
    m, q = problem.M, problem.q
    return dict(
        A_eq=m[np.ix_(idx, idx)], b_eq=-q[idx],
        A_ub=-m[np.ix_(rest, idx)], b_ub=q[rest],
        bounds=[(0, None)] * idx.size, method="highs",
    )


def spread(kw: dict, k: int) -> float:
    """The largest ``max z_i - min z_i`` over the LP's feasible set; inf when unbounded."""
    widest = 0.0
    for i in range(k):
        c = np.eye(k)[i]
        low, high = scipy.optimize.linprog(c, **kw), scipy.optimize.linprog(-c, **kw)
        if 3 in (low.status, high.status):
            return np.inf
        assert low.status == high.status == 0
        widest = max(widest, -high.fun - low.fun)
    return widest


PAIRED_K = np.array([[2.0, 1.0], [1.0, 2.0]])

FIXTURES = ["contact_1d", "contact_1d_resting", "contact_2d", "chain_2_blocks", "degenerate_2d"]

INLINE = {
    "nonconvex": LcpProblem([[-1.0]], [1.0]),
    "infeasible": LcpProblem([[0.0]], [-1.0]),
    "duplicate-supports": LcpProblem(np.eye(2), [0.0, -1.0]),
    # At the CLI tolerance the point of support {0} has w_1 = -5e-9 and still validates.
    "within-tolerance": LcpProblem(np.eye(2), [-1.0, -5e-9]),
    # The singular PSD fixture lifted to dimension 4: rows 0 and 2, 1 and 3 are
    # negated pairs with q_i + q_j = 0, so the pair rule stays off and the LP runs.
    "lifted-singular-psd": LcpProblem(
        np.block([[PAIRED_K, -PAIRED_K], [-PAIRED_K, PAIRED_K]]), [-1.0, 0.5, 1.0, -0.5]
    ),
}


def generated() -> dict:
    """Contact, beam and cascade problems with physical size n <= 5, and small general ones."""
    out = {}
    for seed in (0, 1):
        for n in range(1, 6):
            rng = np.random.default_rng(100 * seed + n)
            out[f"contact-n{n}-s{seed}"] = assemble(gen_contact(n, rng))
            out[f"beam-n{n}-s{seed}"] = assemble(to_contact_lcp(gen_beam(n, rng)))
        for t, n in ((2, 1), (2, 2), (3, 1), (2, 3)):
            chain = gen_cascade(t, n, np.random.default_rng(10 * seed + t + n))
            if sum(blk.n for blk in chain.blocks) <= 5:
                out[f"cascade-t{t}-n{n}-s{seed}"] = assemble_full(chain)
        for n in range(1, 5):
            out[f"general-n{n}-s{seed}"] = gen_general(n, np.random.default_rng(1000 + 10 * seed + n))
    return out


CASES = {**INLINE, **generated()}


def resolve(request, name: str) -> LcpProblem:
    """The named case, or the named conftest fixture as an assembled LCP."""
    if name in CASES:
        return CASES[name]
    p = request.getfixturevalue(name)
    if name == "chain_2_blocks":
        return assemble_full(p)
    return p if isinstance(p, LcpProblem) else assemble(p)


@pytest.fixture(params=FIXTURES + list(CASES))
def problem(request) -> LcpProblem:
    return resolve(request, request.param)


def test_svd_and_lu_classify_every_support_alike(problem):
    n = problem.n
    for mask in range(1, 1 << n):
        s = [i for i in range(n) if mask >> i & 1]
        mss = problem.M[np.ix_(s, s)]
        cut = oracle.SINGULARITY_RTOL * float(np.abs(mss).sum(axis=1).max())
        by_svd = oracle._smallest_singular_values(mss[None])[0] <= cut
        by_lu = lu_smallest_pivot(mss) <= cut
        by_inverse = oracle._singular(mss[None])[0]
        assert by_svd == by_lu == by_inverse, s


def loop_cut(stack: np.ndarray) -> np.ndarray:
    """The per-support loop's singularity cut of each matrix in a (B, k, k) stack."""
    return oracle.SINGULARITY_RTOL * np.abs(stack).sum(axis=2).max(axis=1)


def test_enumeration_matches_the_scipy_reference(problem, monkeypatch):
    new = certify_unique(problem, tol=_tolerance(None, problem))
    monkeypatch.setattr(oracle, "_singular", lambda m: lu_smallest_pivots(m) <= loop_cut(m))
    ref = certify_unique(problem, tol=_tolerance(None, problem))

    assert new.verdict is ref.verdict
    assert new.enumeration.singular_supports == ref.enumeration.singular_supports
    got, want = new.enumeration, ref.enumeration
    assert len(got.solutions) == len(want.solutions)
    for sol, count in zip(got.solutions, got.multiplicities):
        tol = 1e-12 * (1.0 + float(np.abs(sol.z).max()))
        matches = [
            c for s, c in zip(want.solutions, want.multiplicities)
            if np.abs(s.z - sol.z).max() <= tol
        ]
        assert matches == [count], sol.z


def with_smallest_singular_value(ratio: float, k: int, symmetric: bool, rng) -> np.ndarray:
    """A k x k matrix whose smallest singular value is about ``ratio`` times its cut."""
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v = u if symmetric else np.linalg.qr(rng.standard_normal((k, k)))[0]
    s = np.geomspace(2.0, 0.5, k)
    if k == 1:  # a 1 x 1 matrix is its own singular value, 1e10 times its cut
        return (u @ np.diag(s) @ v.T) * ratio
    s[-1] = 0.0
    s[-1] = ratio * oracle.SINGULARITY_RTOL * float(np.abs(u @ np.diag(s) @ v.T).sum(axis=1).max())
    return u @ np.diag(s) @ v.T


RATIOS = [0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0, 100.0, 1e8]


def dominant(stack: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Whether each matrix's row dominance margin exceeds ``2 sqrt(k)`` times its cut."""
    a = np.abs(stack)
    margin = (2.0 * np.diagonal(a, axis1=1, axis2=2) - a.sum(axis=2)).min(axis=1)
    return margin > 2.0 * np.sqrt(stack.shape[-1]) * cut


def with_dominance_margin(ratio: float, k: int, rng) -> np.ndarray:
    """A non-symmetric k x k matrix with a row dominance margin of ``ratio * 2 sqrt(k)`` cut.

    Row 0 has a diagonal of ``10 k`` beyond its other entries and holds the
    largest absolute row sum, which sets the cut; row 1 has exactly the margin,
    and the other rows up to twice it.  A 1 x 1 matrix is its own margin,
    ``5e9`` times ``2 cut``.
    """
    a = rng.uniform(-1.0, 1.0, (k, k))
    np.fill_diagonal(a, 0.0)
    off = np.abs(a).sum(axis=1)
    diagonal = off + 10.0 * k
    margin = ratio * 2.0 * np.sqrt(k) * oracle.SINGULARITY_RTOL * float(diagonal[0] + off[0])
    spread = rng.uniform(1.0, 2.0, k)
    spread[:2] = 1.0
    diagonal[1:] = off[1:] + margin * spread[1:]
    np.fill_diagonal(a, diagonal * rng.choice([-1.0, 1.0], k))
    order = rng.permutation(k)
    return a[np.ix_(order, order)]


MARGINS = [0.5, 0.99, 1.01, 2.0, 1e8]


def counting_inverses(monkeypatch) -> list:
    """Record the number of matrices in each stack that ``np.linalg.inv`` is given."""
    inverted = []
    inv = np.linalg.inv

    def counted(stack):
        inverted.append(stack.shape[0])
        return inv(stack)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return inverted


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", range(1, 13))
def test_the_dominance_margin_clears_without_an_inverse(k, monkeypatch):
    """``_singular`` equals the SVD's decision, and no dominant matrix is inverted.

    Each stack holds matrices whose row dominance margin is ``MARGINS`` times
    ``2 sqrt(k)`` cut, two with ``sigma_min`` half and twice the cut, and one
    with a zero row, at scales from 2^-600 to 2^600.  Varah's bound clears the
    matrices above the margin, so only the others reach ``np.linalg.inv``.
    """
    inverted = counting_inverses(monkeypatch)
    rng = np.random.default_rng(100 + k)
    stack = [with_dominance_margin(r, k, rng) for r in MARGINS]
    stack += [with_smallest_singular_value(r, k, False, rng) for r in (0.5, 2.0)]
    stack = np.array(stack + [np.vstack([np.zeros(k), stack[0][1:]])])
    for e in (-600, -40, 0, 40, 600):
        scaled = stack * 2.0**e
        cut = loop_cut(scaled)
        clear = dominant(scaled, cut)
        assert clear[:len(MARGINS)].tolist() == [k == 1 or r > 1.0 for r in MARGINS]
        assert not clear[-1]
        inverted.clear()
        want = oracle._smallest_singular_values(scaled) <= cut
        assert oracle._singular(scaled).tolist() == want.tolist(), e
        assert sum(inverted) == int((~clear).sum()), e


@pytest.mark.parametrize("k", range(1, 13))
def test_the_inverse_bound_makes_the_svd_decision(k, monkeypatch):
    """``_singular`` equals the SVD's decision on every matrix of mixed stacks.

    Each stack holds non-symmetric matrices at the ratios of ``sigma_min`` to the
    cut in ``RATIOS``, two symmetric ones just below and above the cut, and one
    with a zero row (an exactly zero LU pivot), at scales from 2^-600 to 2^600:
    there the squares of the inverse's entries under- or overflow.  The SVD sees
    every matrix of a stack with a zero pivot that the dominance margin left (all
    but the nonzero 1 x 1 ones), and otherwise at most the nine below 100 times
    the cut: the inverse clears every matrix above ``2 k`` times it.
    """
    seen = []
    svd = oracle._smallest_singular_values

    def recorded(stack):
        seen.append(stack.shape[0])
        return svd(stack)

    monkeypatch.setattr(oracle, "_smallest_singular_values", recorded)
    rng = np.random.default_rng(k)
    base = [with_smallest_singular_value(r, k, False, rng) for r in RATIOS]
    base += [with_smallest_singular_value(r, k, True, rng) for r in (0.99, 1.01)]
    for singular_one in (False, True):
        stack = np.array(base + [np.vstack([np.zeros(k), base[0][1:]])] * singular_one)
        for e in (-600, -40, 0, 40, 600):
            scaled = stack * 2.0**e
            cut = loop_cut(scaled)
            want = svd(scaled) <= cut
            seen.clear()
            assert oracle._singular(scaled).tolist() == want.tolist(), e
            if singular_one:
                assert want[-1] and seen == [int((~dominant(scaled, cut)).sum())]
            else:
                assert sum(seen) <= len(RATIOS)
            if k > 1:
                assert want[:len(RATIOS)].tolist() == [r < 1.0 for r in RATIOS]
                assert want[len(RATIOS):len(RATIOS) + 2].tolist() == [True, False]


def with_differing_row_sums(ratio: float, k: int, rng) -> np.ndarray:
    """A matrix from :func:`with_smallest_singular_value` whose largest row sum of ``|a|``
    differs in the last bits between ``np.einsum`` and ``np.sum``."""
    while True:
        a = with_smallest_singular_value(ratio, k, False, rng)
        absolute = np.abs(a)
        if np.einsum("ij->i", absolute).max() != absolute.sum(axis=1).max():
            return a


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", range(8, 13))
def test_the_derived_cut_never_flips_a_decision(k, monkeypatch):
    """``_singular``'s bounds take the cut from ``einsum`` row sums, its SVD from the loop's.

    Each stack holds two matrices at each ratio of ``sigma_min`` to the loop's cut,
    0.5, 0.999, 1.001 and 2, whose two row sums differ, at scales from 2^-600 to
    2^600.  No bound clears them, so every one reaches the SVD, and the decision is
    the loop's.  With the SVD's answer replaced by the loop's cut, by the next float
    above it and by the cut from ``einsum`` row sums, the decision is still taken
    against the loop's cut, bit for bit.
    """
    rng = np.random.default_rng(800 + k)
    stack = np.array([with_differing_row_sums(r, k, rng) for r in (0.5, 0.999, 1.001, 2.0) * 2])
    svd = oracle._smallest_singular_values
    for e in (-600, -40, 0, 40, 600):
        scaled = stack * 2.0**e
        cut = loop_cut(scaled)
        derived = oracle.SINGULARITY_RTOL * np.einsum("bij->bi", np.abs(scaled)).max(axis=1)
        assert {-1.0, 1.0} <= set(np.sign(derived - cut).tolist()), e
        want = svd(scaled) <= cut
        assert want.tolist() == [True, True, False, False] * 2, e
        assert oracle._singular(scaled).tolist() == want.tolist(), e
        every, none = np.ones(len(stack), dtype=bool), np.zeros(len(stack), dtype=bool)
        for answer, decision in ((cut, every), (np.nextafter(cut, np.inf), none),
                                 (derived, derived <= cut)):
            seen = []
            by_row = dict(zip(map(bytes, scaled), answer))

            def patched(sub):
                seen.append(sub.shape[0])
                return np.array([by_row[bytes(m)] for m in sub])

            with monkeypatch.context() as m:
                m.setattr(oracle, "_smallest_singular_values", patched)
                assert oracle._singular(scaled).tolist() == decision.tolist(), e
            assert seen == [len(stack)], e


def test_an_overflowing_bound_goes_to_the_svd_without_a_warning():
    """``||inv||_inf`` is finite (1e300), but its product with the cut (1e10) overflows."""
    stack = np.diag([1e20, 1e-300])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle._singular(stack).tolist() == [True]


def sliver(s_min: float) -> np.ndarray:
    """A 3x3 matrix with singular values 3, 1 and ``s_min``."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return u @ np.diag([3.0, 1.0, s_min]) @ v.T


@pytest.mark.parametrize(
    "mss",
    [
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0], [2.0, 2.0]])
        @ np.array([[1.0, 0.0, -2.0, 1.0], [0.0, 1.0, 1.0, 3.0]]),
        sliver(0.5 * 3.0 * oracle.SINGULARITY_RTOL),
        sliver(2.0 * 3.0 * oracle.SINGULARITY_RTOL),
    ],
    ids=["singular-psd", "rank-2-of-4", "below-the-cut", "above-the-cut"],
)
def test_family_rank_matches_the_scipy_null_space(mss, monkeypatch):
    """The family search keeps one row of ``M_SS`` per singular value above the cut-off."""
    ranks = []
    independent_rows = oracle._independent_rows

    def recorded(a, r):
        ranks.append(r)
        return independent_rows(a, r)

    monkeypatch.setattr(oracle, "_independent_rows", recorded)
    k = mss.shape[0]
    problem = LcpProblem(mss, -(mss @ np.ones(k)))
    points = oracle._family_points(problem, np.arange(k), 1e-9)
    assert ranks == [k - scipy.linalg.null_space(mss, rcond=oracle.SINGULARITY_RTOL).shape[1]]
    assert points and all(validate(problem, z, 1e-8).solved for z in points)


def loop_enumeration(problem: LcpProblem, tol: float, check=validate):
    """The per-support enumeration: one SVD, one solve and one ``check`` per support.

    Returns the solutions with their multiplicities and the singular supports.
    """
    n = problem.n
    kept, counts, singulars = [], [], []

    def consider(z):
        if not check(problem, z, tol).solved:
            return
        for idx, prev in enumerate(kept):
            if np.abs(z - prev).max(initial=0.0) <= tol:
                counts[idx] += 1
                return
        kept.append(z)
        counts.append(1)

    for mask in range(1 << n):
        support = [i for i in range(n) if mask >> i & 1]
        if not support:
            consider(np.zeros(n))
            continue
        s = np.array(support)
        mss = problem.M[np.ix_(s, s)]
        q_s = problem.q[s]
        scale = float(np.abs(mss).sum(axis=1).max())
        if float(np.linalg.svd(mss, compute_uv=False)[-1]) <= oracle.SINGULARITY_RTOL * scale:
            z_ls, *_ = np.linalg.lstsq(mss, -q_s, rcond=None)
            residual = float(np.abs(mss @ z_ls + q_s).max(initial=0.0))
            consistent = residual <= oracle.CONSISTENCY_RTOL * float(np.abs(q_s).max())
            singulars.append(oracle.SingularSupport(tuple(support), consistent))
            if consistent:
                for z in oracle._family_points(problem, s, tol):
                    consider(z)
            continue
        z = np.zeros(n)
        z[s] = np.linalg.solve(mss, -q_s)
        consider(z)
    return kept, counts, tuple(singulars)


def larger() -> dict:
    """Contact, beam and cascade problems with physical size n = 6, general ones up to n = 8.

    Two of them also come with ``q`` scaled by 1e9 and by 1e-9; the pair rule
    is relative to ``max|q|``, so it settles their paired supports at every
    scale.  The integer-entry problems have exactly singular supports,
    consistent and not, and zero, one or several solutions.
    """
    out = {}
    for seed in (0, 1):
        rng = np.random.default_rng(200 + seed)
        out[f"contact-n6-s{seed}"] = assemble(gen_contact(6, rng))
        out[f"beam-n6-s{seed}"] = assemble(to_contact_lcp(gen_beam(6, rng)))
        for n in range(5, 9):
            out[f"general-n{n}-s{seed}"] = gen_general(n, np.random.default_rng(400 + 10 * seed + n))
    for seed in (302, 304):  # block sizes 2, 2, 2
        out[f"cascade-t3-n6-s{seed}"] = assemble_full(gen_cascade(3, 2, np.random.default_rng(seed)))
    for name in ("contact-n6-s0", "cascade-t3-n6-s302"):
        for scale in (1e-9, 1e9):
            out[f"{name}-x{scale:g}"] = LcpProblem(out[name].M, out[name].q * scale)
    for seed in range(500, 506):
        rng = np.random.default_rng(seed)
        out[f"integer-n6-s{seed}"] = LcpProblem(
            rng.integers(-1, 2, (6, 6)).astype(float), rng.integers(-2, 3, 6).astype(float)
        )
    return out


LARGER = larger()


@pytest.mark.parametrize("name", FIXTURES + list(CASES) + list(LARGER))
def test_blocks_reproduce_the_per_support_loop(name, request):
    problem = LARGER[name] if name in LARGER else resolve(request, name)
    tol = _tolerance(None, problem)
    got = certify_unique(problem, tol=tol, cap=problem.n)
    kept, counts, singulars = loop_enumeration(problem, tol)

    want = {0: Verdict.NONE, 1: Verdict.UNIQUE}.get(len(kept), Verdict.MULTIPLE)
    assert got.verdict is want
    assert got.enumeration.singular_supports == singulars
    assert got.enumeration.multiplicities == tuple(counts)
    for sol, z in zip(got.enumeration.solutions, kept, strict=True):
        assert np.array_equal(sol.z, z)
        assert np.array_equal(sol.w, assemble_w(problem, z))


def test_consistency_test_matches_lstsq():
    rng = np.random.default_rng(7)
    stack, rhs = [], []
    for s_min in (0.0, 1e-15, 1e-13, 1e-11):
        for shift in (0.0, 1e-9, 1e-6, 1e-3):
            u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            a = u @ np.diag([3.0, 1.0, 0.5, s_min]) @ v.T
            stack.append(a)
            rhs.append(-(a @ rng.standard_normal(4)) + shift * u[:, 3])
    stack, rhs = np.array(stack), np.array(rhs)
    want = []
    for a, q in zip(stack, rhs):
        z, *_ = np.linalg.lstsq(a, -q, rcond=None)
        residual = float(np.abs(a @ z + q).max())
        want.append(residual <= oracle.CONSISTENCY_RTOL * float(np.abs(q).max()))
    assert oracle._lstsq_consistent(stack, rhs).tolist() == want
    assert sorted(set(want)) == [False, True]


def test_validate_runs_only_on_screened_survivors(monkeypatch):
    problem = assemble(gen_contact(6, np.random.default_rng(6)))
    tol = _tolerance(None, problem)
    calls = []

    def counting(*args):
        calls.append(args[1])
        return validate(*args)

    loop_enumeration(problem, tol, check=counting)
    assert len(calls) == 3**6  # every nonsingular support, the empty one included
    calls.clear()
    monkeypatch.setattr(oracle, "validate", counting)
    result = enumerate_solutions(problem, tol=tol, cap=problem.n)
    # The empty support is validated unscreened; every other call is a screened survivor.
    assert len(result.solutions) == 1
    assert len(calls) <= 1 + sum(result.multiplicities)


def test_only_sign_feasible_points_reach_the_screen(monkeypatch):
    """``_screen`` sees only points with ``z >= -tol``, fewer than the nonsingular supports."""
    seen = []
    screen = oracle._screen

    def recorded(problem, z, tol):
        seen.append((z >= -tol).all(axis=1))
        return screen(problem, z, tol)

    monkeypatch.setattr(oracle, "_screen", recorded)
    problem = gen_general(8, np.random.default_rng(8))
    result = enumerate_solutions(problem, tol=_tolerance(None, problem), cap=problem.n)
    seen = np.concatenate(seen)
    assert seen.all()
    assert 0 < seen.size < 2**8 - 1 - result.singular_masks.size


def test_working_memory_does_not_grow_with_the_block_count():
    problem = gen_general(16, np.random.default_rng(16))
    assert (1 << problem.n) // oracle.BLOCK_SIZE >= 64
    tracemalloc.start()
    try:
        result = enumerate_solutions(problem, tol=_tolerance(None, problem), cap=problem.n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.solutions) == 1
    assert peak < 4e6, peak


def test_listing_memory_does_not_grow_with_the_singular_supports():
    problem = assemble(gen_contact(8, np.random.default_rng(8)))
    tracemalloc.start()
    try:
        result = enumerate_solutions(problem, tol=_tolerance(None, problem), cap=problem.n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert len(result.solutions) == 1
    assert len(result.singular_supports) == 4**8 - 3**8


def counting_stacks(monkeypatch) -> dict:
    """Count the supports that reach the singularity test, its SVD and the consistency test."""
    rows = {"singular": 0, "svd": 0, "lstsq": 0}
    singular, svd = oracle._singular, oracle._smallest_singular_values
    lstsq = oracle._lstsq_consistent

    def counted_singular(stack):
        rows["singular"] += stack.shape[0]
        return singular(stack)

    def counted_svd(stack):
        rows["svd"] += stack.shape[0]
        return svd(stack)

    def counted_lstsq(stack, q_s):
        rows["lstsq"] += stack.shape[0]
        return lstsq(stack, q_s)

    monkeypatch.setattr(oracle, "_singular", counted_singular)
    monkeypatch.setattr(oracle, "_smallest_singular_values", counted_svd)
    monkeypatch.setattr(oracle, "_lstsq_consistent", counted_lstsq)
    return rows


def test_paired_supports_skip_the_stacked_tests(monkeypatch, degenerate_2d):
    rows = counting_stacks(monkeypatch)
    contact = assemble(gen_contact(6, np.random.default_rng(6)))
    result = enumerate_solutions(contact, tol=_tolerance(None, contact), cap=12)
    # Only the sign patterns of d reach the singularity test; the dominance margin clears them all.
    assert rows == {"singular": 3**6 - 1, "svd": 0, "lstsq": 0}
    assert len(result.singular_supports) == 4**6 - 3**6
    assert not any(s.consistent for s in result.singular_supports)

    rows.update(singular=0, svd=0, lstsq=0)
    general = gen_general(8, np.random.default_rng(8))
    assert len(oracle._negated_pairs(general)[0]) == 0
    enumerate_solutions(general, tol=_tolerance(None, general), cap=8)
    assert rows["singular"] == 2**8 - 1

    # The full support of the singular PSD fixture has an exactly zero LU pivot.
    rows.update(singular=0, svd=0, lstsq=0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(degenerate_2d.M)
    enumerate_solutions(degenerate_2d, tol=_tolerance(None, degenerate_2d), cap=2)
    assert rows == {"singular": 3, "svd": 1, "lstsq": 1}


def recording_calls(monkeypatch) -> list:
    """Record each ``_block_outcomes`` call: its masks and each singularity test's ``(B, k)``."""
    calls = []
    block_outcomes, singular = oracle._block_outcomes, oracle._singular

    def recorded_blocks(problem, masks, tol):
        calls.append((masks.copy(), []))
        return block_outcomes(problem, masks, tol)

    def recorded_singular(stack):
        calls[-1][1].append(stack.shape[:2])
        return singular(stack)

    monkeypatch.setattr(oracle, "_block_outcomes", recorded_blocks)
    monkeypatch.setattr(oracle, "_singular", recorded_singular)
    return calls


def check_stacks(masks: np.ndarray, stacks: list):
    """The supports of each size went through full stacks within the entry budget, then the rest.

    A stack holds ``16 * BLOCK_SIZE // k**2`` supports of size ``k``, or one when
    a single support has more entries than that.
    """
    sizes = np.bitwise_count(masks)
    for k in np.unique(sizes).tolist():
        per_call = max(1, 16 * oracle.BLOCK_SIZE // k**2)
        count = int((sizes == k).sum())
        full, rest = divmod(count, per_call)
        assert [b for b, size in stacks if size == k] == [per_call] * full + [rest] * (rest > 0)
    assert sum(b for b, _ in stacks) == masks.size


def test_only_unpaired_supports_reach_the_blocks_and_fill_them(monkeypatch):
    """One call per chunk takes its unpaired masks, ascending; each size fills its stacks."""
    calls = recording_calls(monkeypatch)
    contact = assemble(gen_contact(6, np.random.default_rng(6)))
    enumerate_solutions(contact, tol=_tolerance(None, contact), cap=12)
    [(masks, stacks)] = calls
    i, j = oracle._negated_pairs(contact)
    assert i.size == 6
    assert masks.size == 3**6 - 1
    assert (np.diff(masks) > 0).all()
    assert not ((masks[:, None] >> i) & (masks[:, None] >> j) & 1).any()
    check_stacks(masks, stacks)

    general = gen_general(8, np.random.default_rng(8))
    for block_size, chunks in ((oracle.BLOCK_SIZE, 1), (4, 4)):
        monkeypatch.setattr(oracle, "BLOCK_SIZE", block_size)
        calls.clear()
        enumerate_solutions(general, tol=_tolerance(None, general), cap=8)
        assert len(calls) == chunks
        assert np.array_equal(np.concatenate([m for m, _ in calls]), np.arange(1, 2**8))
        for masks, stacks in calls:
            check_stacks(masks, stacks)
    # 64 entries hold 4 supports of size 4: the 20 in the third chunk (129 to 192) take 5 stacks.
    assert [b for b, k in calls[2][1] if k == 4] == [4] * 5


def pair_threshold(q: np.ndarray) -> float:
    """The smallest ``|q_i + q_j|`` beyond which the pair rule applies."""
    return oracle.PAIR_MARGIN * oracle.CONSISTENCY_RTOL * float(np.abs(q).max())


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    paired=st.booleans(),
    m_exp=st.integers(-6, 6),
    q_exp=st.integers(-12, 12),
    excess=st.floats(1.001, 1e6),
)
def test_a_negated_pair_beyond_the_threshold_is_singular_and_inconsistent(
    seed, k, paired, m_exp, q_exp, excess
):
    """What the pair rule decides without LAPACK, the stacked tests decide alike.

    Each matrix has rows ``j = -i`` exactly; it is either a random matrix or a
    principal submatrix of a paired ``[[K, -K], [-K, K]]`` with ``K`` SPD.
    ``q_j`` is set so that ``|q_i + q_j|`` is ``excess`` times the threshold.
    """
    rng = np.random.default_rng(seed)
    stack = np.empty((4, k, k))
    q_s = rng.standard_normal((4, k)) * 10.0**q_exp
    for b in range(4):
        if paired:
            a = rng.standard_normal((k, k))
            spd = a.T @ a + np.eye(k)
            big = np.block([[spd, -spd], [-spd, spd]])
            pair = int(rng.integers(k))
            others = np.setdiff1d(np.arange(2 * k), [pair, pair + k])
            support = np.sort(np.r_[pair, pair + k, rng.choice(others, k - 2, replace=False)])
            stack[b] = big[np.ix_(support, support)] * 10.0**m_exp
            i, j = (int(np.flatnonzero(support == x)[0]) for x in (pair, pair + k))
        else:
            stack[b] = rng.standard_normal((k, k)) * 10.0**m_exp
            i, j = (int(x) for x in rng.choice(k, 2, replace=False))
            stack[b, j] = -stack[b, i]
        assert np.array_equal(stack[b, j], -stack[b, i])
        rest = np.delete(q_s[b], j)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        q_s[b, j] = -q_s[b, i] + sign * excess * pair_threshold(rest)
        assert abs(q_s[b, i] + q_s[b, j]) > pair_threshold(q_s[b])

    cut = loop_cut(stack)
    assert (oracle._smallest_singular_values(stack) <= cut).all()
    assert oracle._singular(stack).all()
    assert not oracle._lstsq_consistent(stack, q_s).any()


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3], ids=["below", "above"])
def test_the_pair_rule_agrees_with_the_loop_at_its_threshold(side, monkeypatch):
    """Rows 0 and 2 are a negated pair with ``q_0 + q_2`` on either side of the threshold.

    Rows 1 and 3 are a pair far beyond it.  ``max|q|`` is 1 on both sides,
    so the threshold is the same and only the rule's decision moves.
    """
    m = np.block([[PAIRED_K, -PAIRED_K], [-PAIRED_K, PAIRED_K]])
    gap = side * oracle.PAIR_MARGIN * oracle.CONSISTENCY_RTOL
    problem = LcpProblem(m, [-1.0 + gap, 0.5, 1.0, 0.5])
    assert float(np.abs(problem.q).max()) == 1.0
    pairs = [(int(i), int(j)) for i, j in zip(*oracle._negated_pairs(problem))]
    assert pairs == ([(0, 2), (1, 3)] if side > 1.0 else [(1, 3)])

    rows = counting_stacks(monkeypatch)
    tol = _tolerance(None, problem)
    got = certify_unique(problem, tol=tol, cap=problem.n)
    # Below the threshold {0, 2}, {0, 1, 2} and {0, 2, 3} reach the consistency test.
    assert rows["lstsq"] == (0 if side > 1.0 else 3)
    kept, counts, singulars = loop_enumeration(problem, tol)
    assert got.enumeration.singular_supports == singulars
    assert not any(s.consistent for s in singulars)
    assert got.verdict is Verdict.UNIQUE
    assert got.enumeration.multiplicities == tuple(counts)
    assert np.array_equal(got.z, kept[0])


#: Problems whose size groups the stacks of the next test split, and how many of
#: their supports reach the inverse: the margin clears all of the first, and half
#: of the 3^4 - 1 unpaired supports of the second.
SPLIT = {
    "general-n6-dominant": (gen_general(6, np.random.default_rng(600)), 0),
    "cascade-t3-n4-s20": (assemble_full(gen_cascade(3, 2, np.random.default_rng(20))), 40),
}


@pytest.mark.parametrize("block_size", [1, 3, 7])
@pytest.mark.parametrize(
    "name", ["contact-n4-s0", "beam-n4-s0", "cascade-t2-n2-s0", "lifted-singular-psd",
             "pair-below", "pair-above", *SPLIT],
)
def test_split_blocks_and_chunks_reproduce_the_per_support_loop(name, block_size, monkeypatch):
    """Stacks of at most 16, 48 or 112 entries, and chunks of as many masks, change nothing.

    ``pair-below`` and ``pair-above`` have one negated pair beyond the pair
    rule's threshold and one just below or above it.  The problems of ``SPLIT``
    have a size group that a chunk holds in more than one stack.
    """
    if name.startswith("pair-"):
        gap = (0.999 if name == "pair-below" else 1.001) * pair_threshold(np.ones(1))
        m = np.block([[PAIRED_K, -PAIRED_K], [-PAIRED_K, PAIRED_K]])
        problem = LcpProblem(m, [-1.0 + gap, 0.5, 1.0, 0.5])
    else:
        problem = SPLIT[name][0] if name in SPLIT else CASES[name]
    tol = _tolerance(None, problem)
    monkeypatch.setattr(oracle, "BLOCK_SIZE", block_size)
    inverted = counting_inverses(monkeypatch)
    calls = recording_calls(monkeypatch)
    got = enumerate_solutions(problem, tol=tol, cap=problem.n)
    if name in SPLIT:
        assert sum(inverted) == SPLIT[name][1]
        assert any(len(stacks) > len(set(k for _, k in stacks)) for _, stacks in calls)
    kept, counts, singulars = loop_enumeration(problem, tol)
    assert got.singular_supports == singulars
    assert got.multiplicities == tuple(counts)
    for sol, z in zip(got.solutions, kept, strict=True):
        assert np.array_equal(sol.z, z)


def check_family(problem: LcpProblem, idx: np.ndarray, points: list, tol: float, lp: bool):
    """``points`` are what ``_family_points`` may return for the support ``idx``.

    At most two solutions, more than ``tol`` apart, with zeros off the support
    and ``w = 0`` on it up to the consistency slack at ``max|q|`` plus the
    rounding of ``w``.  With ``lp``, HiGHS finds ``P_S`` nonempty exactly when there are
    points, and a single point (no spread in ``z``) exactly when there is one.
    """
    assert len(points) <= 2
    rest = np.setdiff1d(np.arange(problem.n), idx)
    for z in points:
        assert validate(problem, z, tol).solved
        assert not z[rest].any()
        bound = oracle.CONSISTENCY_RTOL * float(np.abs(problem.q).max()) + w_rounding(problem, z)
        assert np.abs(assemble_w(problem, z)[idx]).max() <= 4 * bound
    if len(points) == 2:
        assert np.abs(points[0] - points[1]).max() > tol
    if not lp:
        return
    kw = lp_feasible_part(problem, idx)
    feasible = scipy.optimize.linprog(np.zeros(idx.size), **kw)
    assert feasible.status == (0 if points else 2)
    if len(points) == 1:
        assert spread(kw, idx.size) <= 1e-9 * (1.0 + float(np.abs(points[0]).max()))


@pytest.mark.parametrize("name", FIXTURES + list(CASES) + list(LARGER))
def test_family_representatives_match_the_linprog_reference(name, request, monkeypatch):
    """Every consistent singular support's points agree with HiGHS over its ``P_S``."""
    problem = LARGER[name] if name in LARGER else resolve(request, name)
    tol = _tolerance(None, problem)
    family_points = oracle._family_points
    families = []

    def checked(problem, idx, tol):
        points = family_points(problem, idx, tol)
        check_family(problem, idx, points, tol, lp=True)
        families.append(len(points))
        return points

    monkeypatch.setattr(oracle, "_family_points", checked)
    got = certify_unique(problem, tol=tol, cap=problem.n)
    assert len(families) == int(got.enumeration.singular_consistent.sum())


def low_rank_family(seed: int) -> tuple[LcpProblem, np.ndarray]:
    """An integer ``M`` of rank below ``n`` and a support ``S`` on which ``M_SS`` is singular."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    r = int(rng.integers(1, n))
    m = (rng.integers(-2, 3, (n, r)) @ rng.integers(-2, 3, (r, n))).astype(float)
    idx = np.flatnonzero(rng.random(n) < 0.7)
    if idx.size == 0:
        idx = np.arange(n)
    z = np.zeros(n)
    z[idx] = rng.integers(0, 3, idx.size)
    w = rng.integers(-1, 3, n).astype(float)
    w[idx] = 0.0
    return LcpProblem(m, w - m @ z), idx


def test_low_rank_integer_families_match_the_linprog_spread():
    """Families that are empty, a single point, segments and rays.

    ``M`` is a product of integer factors of rank below ``n``, so ``M_SS`` is
    singular, and ``q`` comes from an integer ``z >= 0`` on ``S`` whose ``w``
    may be negative off it, so ``P_S`` may be empty.
    """
    seen = set()
    for seed in range(300):
        problem, idx = low_rank_family(seed)
        tol = _tolerance(None, problem)
        points = oracle._family_points(problem, idx, tol)
        check_family(problem, idx, points, tol, lp=True)
        seen.add(len(points))
    assert seen == {0, 1, 2}


def test_the_widest_family_stays_within_a_few_mb():
    """A paired ``[[K, -K], [-K, K]]`` with ``K`` 7x7 SPD: k = n = 14, rank 7, 3432 bases."""
    rng = np.random.default_rng(14)
    a = rng.standard_normal((7, 7))
    spd = a.T @ a + np.eye(7)
    mss = np.block([[spd, -spd], [-spd, spd]])
    problem = LcpProblem(mss, -(mss @ rng.uniform(0.0, 1.0, 14)))
    tol = _tolerance(None, problem)
    tracemalloc.start()
    try:
        points = oracle._family_points(problem, np.arange(14), tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    # The paired directions (x, x) are rays, so the family is not a single point.
    check_family(problem, np.arange(14), points, tol, lp=False)
    assert len(points) == 2


def test_a_pair_with_zero_gap_sum_reaches_the_family_representatives(monkeypatch):
    problem = CASES["lifted-singular-psd"]
    assert len(oracle._negated_pairs(problem)[0]) == 0
    calls = []
    family_points = oracle._family_points

    def counted(problem, idx, tol):
        calls.append(idx.size)
        return family_points(problem, idx, tol)

    monkeypatch.setattr(oracle, "_family_points", counted)
    result = certify_unique(problem, tol=_tolerance(None, problem), cap=4)
    assert result.verdict is Verdict.MULTIPLE
    assert calls
    assert all(s.consistent for s in result.enumeration.singular_supports)


def monotone_integer_lcp(seed: int) -> LcpProblem:
    """``M = BB'`` with integer ``B`` of rank below ``n``, plus an integer skew part on odd seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    b = rng.integers(-1, 2, (n, int(rng.integers(1, n))))
    m = b @ b.T
    if seed % 2:
        s = np.triu(rng.integers(-1, 2, (n, n)), 1)
        m = m + s - s.T
    return LcpProblem(m.astype(float), rng.integers(-2, 3, n).astype(float))


def referee(problem: LcpProblem, z_star: np.ndarray | None) -> Verdict | None:
    """The verdict of HiGHS LPs over the solution set of a monotone LCP.

    ``none`` exactly when ``{z >= 0, q + Mz >= 0}`` is infeasible; a monotone
    LCP that is feasible is solvable.  Otherwise, with ``z_star`` a solution,
    the solution set is ``{z >= 0, q + Mz >= 0, (M+M')(z - z_star) = 0,
    q'(z - z_star) = 0}``, and it is one point when no coordinate spreads over
    it.  Returns ``None`` for a feasible problem without ``z_star``.
    """
    m, q, n = problem.M, problem.q, problem.n
    kw = dict(A_ub=-m, b_ub=q, bounds=[(0, None)] * n, method="highs")
    feasible = scipy.optimize.linprog(np.zeros(n), **kw)
    if feasible.status == 2:
        return Verdict.NONE
    if z_star is None:
        return None
    a_eq = np.vstack([m + m.T, q])
    width = spread({**kw, "A_eq": a_eq, "b_eq": a_eq @ z_star}, n)
    return Verdict.MULTIPLE if width > 1e-6 else Verdict.UNIQUE


def test_the_oracle_agrees_with_the_lp_referee_on_monotone_integer_lcps():
    """Low-rank PSD (even seeds) and skew-PSD (odd seeds) integer LCPs.

    On seed 127 the solution set is the ray ``(0, 0, t, 0)``, ``t >= 2``.  It is
    the feasible part of the singular support ``{2}`` (``M_22 = q_2 = 0``),
    cut from ``z_2 >= 0`` by ``w_1 = z_2 - 2 >= 0``; a search of ``z_2 >= 0``
    alone finds only points that fail ``w_1 >= 0``.
    """
    seen = set()
    for seed in range(160):
        problem = monotone_integer_lcp(seed)
        tol = _tolerance(None, problem)
        got = certify_unique(problem, tol=tol, cap=problem.n)
        solutions = got.enumeration.solutions
        assert got.verdict is referee(problem, solutions[0].z if solutions else None), seed
        seen.add(got.verdict)
    assert seen == set(Verdict)
