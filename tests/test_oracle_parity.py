"""The oracle's NumPy linear algebra agrees with the SciPy routines it replaced.

``scipy.linalg`` is the reference here and only here: the smallest LU pivot
was the singularity test and ``null_space`` the null basis.  Patching both
back into the oracle reproduces its former enumeration exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from beamlcp import LcpProblem, assemble, assemble_full, certify_unique, oracle, to_contact_lcp
from beamlcp.generate import gen_beam, gen_cascade, gen_contact, gen_general


def lu_smallest_pivot(mss: np.ndarray) -> float:
    if mss.shape[0] == 1:
        return abs(float(mss[0, 0]))
    _, _, u = scipy.linalg.lu(mss)
    return float(np.abs(np.diag(u)).min())


def scipy_null_basis(mss: np.ndarray) -> np.ndarray:
    return scipy.linalg.null_space(mss, rcond=oracle.SINGULARITY_RTOL)


FIXTURES = ["contact_1d", "contact_1d_resting", "contact_2d", "chain_2_blocks", "degenerate_2d"]

INLINE = {
    "nonconvex": LcpProblem([[-1.0]], [1.0]),
    "infeasible": LcpProblem([[0.0]], [-1.0]),
    "duplicate-supports": LcpProblem(np.eye(2), [0.0, -1.0]),
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


@pytest.fixture(params=FIXTURES + list(CASES))
def problem(request) -> LcpProblem:
    if request.param in CASES:
        return CASES[request.param]
    p = request.getfixturevalue(request.param)
    if request.param == "chain_2_blocks":
        return assemble_full(p)
    return p if isinstance(p, LcpProblem) else assemble(p)


def test_svd_and_lu_classify_every_support_alike(problem):
    n = problem.n
    for mask in range(1, 1 << n):
        s = [i for i in range(n) if mask >> i & 1]
        mss = problem.M[np.ix_(s, s)]
        cut = oracle.SINGULARITY_RTOL * float(np.abs(mss).sum(axis=1).max())
        by_svd = oracle._smallest_singular_value(mss) <= cut
        by_lu = lu_smallest_pivot(mss) <= cut
        assert by_svd == by_lu, s


def test_enumeration_matches_the_scipy_reference(problem, monkeypatch):
    new = certify_unique(problem)
    monkeypatch.setattr(oracle, "_smallest_singular_value", lu_smallest_pivot)
    monkeypatch.setattr(oracle, "_null_basis", scipy_null_basis)
    ref = certify_unique(problem)

    assert new.verdict is ref.verdict
    assert new.enumeration.singular_supports == ref.enumeration.singular_supports
    got, want = new.enumeration, ref.enumeration
    assert len(got.solutions) == len(want.solutions)
    # A null vector may come out with the other sign, which only reorders candidates.
    for sol, count in zip(got.solutions, got.multiplicities):
        tol = 1e-12 * (1.0 + float(np.abs(sol.z).max()))
        matches = [
            c for s, c in zip(want.solutions, want.multiplicities)
            if np.abs(s.z - sol.z).max() <= tol
        ]
        assert matches == [count], sol.z


@pytest.mark.parametrize(
    "mss",
    [
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0], [2.0, 2.0]])
        @ np.array([[1.0, 0.0, -2.0, 1.0], [0.0, 1.0, 1.0, 3.0]]),
    ],
    ids=["singular-psd", "rank-2-of-4"],
)
def test_null_basis_spans_the_scipy_null_space(mss):
    got = oracle._null_basis(mss)
    want = scipy_null_basis(mss)
    assert got.shape == want.shape
    assert np.allclose(got.T @ got, np.eye(got.shape[1]), rtol=0, atol=1e-12)
    assert np.allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)
    assert np.abs(mss @ got).max() <= 1e-12 * np.abs(mss).max()
