"""The solvers and the oracle are equivariant under power-of-two rescaling.

Scaling an LCP to ``(2^a M, 2^b q)`` scales its solutions ``z`` by ``2^(b-a)``
and its ``w`` by ``2^b``.  A product with a power of two is exact, every
tolerance is a relative constant times ``max|q|``, and Lemke pivots on ``M``
and ``q`` normalised by powers of two.  So ``lemke_solve`` and the active
set return exactly ``2^(b-a)`` times their unscaled results.  With ``a, b``
in ``[-40, 40]`` the scales span about ``10^-12`` to ``10^12``.

The oracle, at the CLI's default tolerance, keeps its verdict and its
solution count when ``q`` alone is scaled.  Scaling ``M`` is another matter:
``validate`` tests ``z >= -tol`` with ``tol`` in the units of ``q``, so once
``M`` grows by about ``2^18`` it accepts points of wrong supports (see
``test_scaling_m_up_keeps_the_certificate``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlcp import (
    CascadeBlock,
    CascadeProblem,
    ContactLcp,
    LcpProblem,
    assemble,
    assemble_full,
    certify_unique,
    lemke_solve,
    solve_cascade,
    solve_structured,
    to_contact_lcp,
)
from beamlcp.cli import _tolerance, main
from beamlcp.contact import feasible_point
from beamlcp.fileio import ProblemFile, save_problem
from beamlcp.generate import gen_beam, gen_cascade, gen_contact, gen_general, gen_problem

EXPONENTS = st.integers(-40, 40)
SEEDS = st.integers(0, 2**32 - 1)


def scale_contact(c: ContactLcp, a: int, b: int) -> ContactLcp:
    return ContactLcp(np.ldexp(c.K, a), np.ldexp(c.q_tilde, b), np.ldexp(c.y_star, b))


def scale_cascade(p: CascadeProblem, a: int, b: int) -> CascadeProblem:
    return CascadeProblem(tuple(
        CascadeBlock(
            np.ldexp(blk.K, a), np.ldexp(blk.q1, b), np.ldexp(blk.q2, b),
            tuple((j, np.ldexp(ktilde, a)) for j, ktilde in blk.couplings),
        )
        for blk in p.blocks
    ))


def assert_lemke_equivariant(lcp: LcpProblem, scaled: LcpProblem, a: int, b: int):
    want, got = lemke_solve(lcp), lemke_solve(scaled)
    assert np.array_equal(got.z, np.ldexp(want.z, b - a))
    assert got.iterations == want.iterations


def assert_certificate_equivariant(lcp: LcpProblem, scaled: LcpProblem):
    """Same verdict and solution count at the CLI's default tolerance of each."""
    want = certify_unique(lcp, tol=_tolerance(None, lcp), cap=lcp.n)
    got = certify_unique(scaled, tol=_tolerance(None, scaled), cap=scaled.n)
    assert got.verdict is want.verdict
    assert len(got.enumeration.solutions) == len(want.enumeration.solutions)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6), a=EXPONENTS, b=EXPONENTS)
def test_general_problems_scale_exactly(seed, n, a, b):
    p = gen_general(n, np.random.default_rng(seed))
    scaled = LcpProblem(np.ldexp(p.M, a), np.ldexp(p.q, b))
    assert_lemke_equivariant(p, scaled, a, b)
    assert_certificate_equivariant(p, LcpProblem(p.M, np.ldexp(p.q, b)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 4), beam=st.booleans(), a=EXPONENTS, b=EXPONENTS)
def test_contact_and_beam_problems_scale_exactly(seed, n, beam, a, b):
    rng = np.random.default_rng(seed)
    c = to_contact_lcp(gen_beam(n, rng)) if beam else gen_contact(n, rng)
    scaled = scale_contact(c, a, b)
    assert np.array_equal(solve_structured(scaled).d, np.ldexp(solve_structured(c).d, b - a))
    assert_lemke_equivariant(assemble(c), assemble(scaled), a, b)
    assert_certificate_equivariant(assemble(c), assemble(scale_contact(c, 0, b)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, t=st.integers(1, 3), a=EXPONENTS, b=EXPONENTS)
def test_cascade_problems_scale_exactly(seed, t, a, b):
    p = gen_cascade(t, 4 // t, np.random.default_rng(seed))
    scaled = scale_cascade(p, a, b)
    for got, want in zip(solve_cascade(scaled), solve_cascade(p), strict=True):
        assert np.array_equal(got.d, np.ldexp(want.d, b - a))
    assert_lemke_equivariant(assemble_full(p), assemble_full(scaled), a, b)
    assert_certificate_equivariant(assemble_full(p), assemble_full(scale_cascade(p, 0, b)))


def singular_psd(seed: int) -> LcpProblem:
    """``M = B B'`` of rank below ``n``, and a ``q`` solved by a ``z >= 0`` of random support.

    The support's family is a ray or segment of solutions whenever ``M_SS`` is singular.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    b = rng.standard_normal((n, int(rng.integers(1, n))))
    m = b @ b.T
    z = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.5)
    q = -(m @ z) + np.abs(rng.standard_normal(n)) * (z == 0) * (rng.random(n) < 0.5)
    return LcpProblem(m, q)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, b=EXPONENTS)
def test_singular_psd_families_keep_their_certificate(seed, b):
    """The points of a family, rays included, scale with ``q``, so they validate alike."""
    p = singular_psd(seed)
    assert_certificate_equivariant(p, LcpProblem(p.M, np.ldexp(p.q, b)))


@pytest.mark.xfail(strict=True, reason="validate compares z with a tol in the units of q")
def test_scaling_m_up_keeps_the_certificate():
    """A beam whose ``M`` grows by ``2^18``: ``z`` shrinks by as much, ``tol`` does not.

    The unscaled problem has one solution.  Scaled, ``validate`` also accepts
    the point of a wrong support, whose most negative entry is inside ``-tol``.
    """
    c = to_contact_lcp(gen_beam(3, np.random.default_rng(652400772)))
    assert_certificate_equivariant(assemble(c), assemble(scale_contact(c, 18, 0)))


def small_contact(seed: int, factor: float = 1e-9) -> ContactLcp:
    """``gen_contact(4)`` with loads and clearances scaled by ``factor``."""
    c = gen_problem("contact", 4, 2, seed)
    return ContactLcp(c.K, factor * c.q_tilde, factor * c.y_star)


def write(tmp_path, kind, problem) -> str:
    path = tmp_path / f"{kind}.json"
    save_problem(ProblemFile(kind, problem, {}), path)
    return str(path)


@pytest.mark.parametrize("factor", [1.0, 1e-9])
def test_verify_rejects_the_feasible_point_at_every_scale(tmp_path, capsys, factor):
    """The feasible point has zero lower gaps but pushes on the upper wall too."""
    c = small_contact(0, factor)
    point = feasible_point(c)
    assert point.complementarity_gap > 0.0
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"z": point.z.tolist()}))
    code = main(["verify", "--input", write(tmp_path, "contact", c), "--output", str(report)])
    assert code == 2
    assert "solved: False" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(10))
def test_enumerate_finds_the_one_solution_at_small_scale(tmp_path, capsys, seed):
    assert main(["enumerate", "--input", write(tmp_path, "contact", small_contact(seed))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("solution")] == [lines[0]]
    assert lines[-1] == "verdict: unique"


#: ``q = 0``: ``z = 0`` solves each; ``M = I`` has no other solution, the
#: singular PSD and the skew ``M`` have a ray of them.  On the last two rays
#: (``t (2, 1)`` and ``t (3, 1)``) the computed ``w`` is not exactly 0: the
#: tolerance is 0 there, and only ``validate``'s rounding allowance keeps them.
ZERO_Q = {
    "identity": (np.eye(2), "unique", 0),
    "singular-psd": (np.array([[1.0, -1.0], [-1.0, 1.0]]), "multiple", 4),
    "skew": (np.array([[0.0, 1.0], [-1.0, 0.0]]), "multiple", 4),
    "ray-2-1": (np.array([[1.0, -2.0], [-2.0, 4.0]]), "multiple", 4),
    "inexact-ray-3-1": (np.array([[0.1, -0.3], [-0.3, 0.9]]), "multiple", 4),
}


@pytest.mark.parametrize("name", list(ZERO_Q))
def test_zero_q_needs_no_special_case(tmp_path, capsys, name):
    m, verdict, enumerate_code = ZERO_Q[name]
    path = write(tmp_path, "general", LcpProblem(m, np.zeros(2)))
    assert main(["solve", "--input", path, "--cap", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z"] == [0.0, 0.0] and report["solved"]
    assert report["uniqueness_verdict"] == verdict
    assert main(["enumerate", "--input", path]) == enumerate_code
    assert capsys.readouterr().out.endswith(f"verdict: {verdict}\n")
