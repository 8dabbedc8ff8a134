"""Tests for the simply supported beam model.

The influence function is cross-checked against an independent unit-load
(virtual work) computation: deflection(x, a) = integral of m(s; x) * m(s; a)
/ EI over the span, where m(s; x) is the bending moment at s due to a unit
load at x.  The integrand is piecewise quadratic, so Gauss-Legendre with
three nodes per smooth piece integrates it exactly up to rounding.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlcp import (
    BeamConfig,
    DuplicatePositions,
    InvariantViolation,
    OutOfDomain,
    PointLoad,
    Stabilizer,
    Verdict,
    assemble,
    certify_unique,
    flexibility_matrix,
    influence,
    lemke_solve,
    load_vector,
    solve_structured,
    spd_factor,
    to_contact_lcp,
    validate,
)
from beamlcp.generate import gen_beam


def unit_load_moment(s: float, x: float, length: float) -> float:
    if s <= x:
        return (1.0 - x / length) * s
    return x * (1.0 - s / length)


def influence_by_virtual_work(x: float, a: float, length: float, ei: float) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(3)
    breaks = sorted({0.0, x, a, length})
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        for t, wgt in zip(nodes, weights):
            s = mid + half * t
            total += wgt * half * unit_load_moment(s, x, length) * unit_load_moment(s, a, length)
    return total / ei


def test_midspan_reference():
    assert influence(5.0, 5.0, 10.0, 1.0) == pytest.approx(1000.0 / 48.0, rel=1e-12)


def test_influence_against_virtual_work_references():
    for x, a, length, ei in [
        (5.0, 5.0, 10.0, 1.0),
        (3.0, 7.0, 10.0, 1.0),
        (1.0, 9.0, 10.0, 2.5),
        (2.0, 2.0, 7.0, 0.5),
    ]:
        expected = influence_by_virtual_work(x, a, length, ei)
        assert influence(x, a, length, ei) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(0.05, 9.95),
    a=st.floats(0.05, 9.95),
    ei=st.floats(0.1, 10.0),
)
def test_influence_matches_virtual_work(x, a, ei):
    expected = influence_by_virtual_work(x, a, 10.0, ei)
    assert influence(x, a, 10.0, ei) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.01, 9.99), a=st.floats(0.01, 9.99))
def test_influence_reciprocity(x, a):
    assert influence(x, a, 10.0, 1.0) == influence(a, x, 10.0, 1.0)


def test_influence_is_positive_in_the_interior():
    for x in np.linspace(0.5, 9.5, 19):
        assert influence(float(x), 5.0, 10.0, 1.0) > 0.0


def test_influence_domain_checks():
    with pytest.raises(OutOfDomain):
        influence(0.0, 5.0, 10.0, 1.0)
    with pytest.raises(OutOfDomain):
        influence(10.0, 5.0, 10.0, 1.0)
    with pytest.raises(OutOfDomain):
        influence(5.0, -1.0, 10.0, 1.0)
    with pytest.raises(OutOfDomain):
        influence(5.0, 11.0, 10.0, 1.0)


def test_flexibility_matrix_reference():
    cfg = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(3.0, 0.5), Stabilizer(7.0, 0.5)),
    )
    k = flexibility_matrix(cfg)
    assert np.allclose(k, [[14.7, 12.3], [12.3, 14.7]], rtol=0, atol=1e-12)
    assert np.array_equal(k, k.T)
    eigs = np.sort(np.linalg.eigvalsh(k))
    assert np.allclose(eigs, [2.4, 27.0], rtol=0, atol=1e-9)
    spd_factor(k)


def test_flexibility_matrix_is_exactly_symmetric(rng):
    for _ in range(50):
        cfg = gen_beam(int(rng.integers(1, 6)), rng)
        k = flexibility_matrix(cfg)
        assert np.array_equal(k, k.T)
        spd_factor(k)


def test_load_vector_superposition():
    cfg = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(5.0, 1.0),),
        loads=(PointLoad(5.0, -0.096),),
    )
    q = load_vector(cfg)
    assert np.allclose(q, [-2.0], rtol=0, atol=1e-12)
    two_loads = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(5.0, 1.0),),
        loads=(PointLoad(5.0, -0.048), PointLoad(5.0, -0.048)),
    )
    assert np.allclose(load_vector(two_loads), q, rtol=0, atol=1e-15)


def test_reference_beam_contact_solution():
    cfg = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(5.0, 1.0),),
        loads=(PointLoad(5.0, -0.096),),
    )
    c = to_contact_lcp(cfg)
    assert np.allclose(c.q_tilde, [-2.0], rtol=0, atol=1e-12)
    assert np.array_equal(c.y_star, np.array([1.0]))
    sol = solve_structured(c)
    assert sol.F_l[0] == pytest.approx(0.048, rel=1e-12)
    assert np.array_equal(sol.F_u, np.zeros(1))


def test_config_validation():
    with pytest.raises(InvariantViolation):
        BeamConfig(length=-1.0, ei=1.0, stabilizers=(Stabilizer(0.5, 1.0),))
    with pytest.raises(InvariantViolation):
        BeamConfig(length=10.0, ei=0.0, stabilizers=(Stabilizer(5.0, 1.0),))
    with pytest.raises(OutOfDomain):
        BeamConfig(length=10.0, ei=1.0, stabilizers=(Stabilizer(0.0, 1.0),))
    with pytest.raises(OutOfDomain):
        BeamConfig(length=10.0, ei=1.0, stabilizers=(Stabilizer(10.0, 1.0),))
    with pytest.raises(DuplicatePositions):
        BeamConfig(
            length=10.0,
            ei=1.0,
            stabilizers=(Stabilizer(5.0, 1.0), Stabilizer(5.0, 2.0)),
        )
    with pytest.raises(InvariantViolation):
        BeamConfig(
            length=10.0,
            ei=1.0,
            stabilizers=(Stabilizer(7.0, 1.0), Stabilizer(3.0, 1.0)),
        )
    with pytest.raises(InvariantViolation):
        BeamConfig(length=10.0, ei=1.0, stabilizers=(Stabilizer(5.0, 0.0),))
    with pytest.raises(OutOfDomain):
        BeamConfig(
            length=10.0,
            ei=1.0,
            stabilizers=(Stabilizer(5.0, 1.0),),
            loads=(PointLoad(12.0, -1.0),),
        )


def test_generated_beams_are_well_posed_and_unique(rng):
    for _ in range(20):
        cfg = gen_beam(int(rng.integers(1, 4)), rng)
        c = to_contact_lcp(cfg)
        res = certify_unique(assemble(c), tol=1e-9)
        assert res.verdict is Verdict.UNIQUE
        sol = solve_structured(c)
        z = np.concatenate([sol.F_l, sol.F_u])
        assert np.max(np.abs(z - res.z)) <= 1e-7


def _closed_form(x, a, length, ei):
    """The influence formula in Python float arithmetic, with x <= a."""
    if x > a:
        x, a = a, x
    b = length - a
    return b * x * (length * length - b * b - x * x) / (6.0 * length * ei)


def test_influence_is_the_closed_form_bit_for_bit(rng):
    cases = [(5.0, 5.0, 10.0, 1.0), (3.0, 7.0, 10.0, 1.0), (7.0, 3.0, 10.0, 1.0)]
    for _ in range(2000):
        length, ei = 10.0 ** rng.uniform(-3.0, 6.0), 10.0 ** rng.uniform(-3.0, 12.0)
        cases.append((*rng.uniform(0.0, length, 2).tolist(), float(length), float(ei)))
    for x, a, length, ei in cases:
        if 0.0 < x < length and 0.0 < a < length:
            got = influence(x, a, length, ei)
            assert type(got) is float and got == _closed_form(x, a, length, ei), (x, a, length, ei)


def test_tables_match_the_scalar_influence(rng):
    for _ in range(50):
        cfg = gen_beam(int(rng.integers(1, 30)), rng)
        xs = [s.position for s in cfg.stabilizers]
        k = np.array([[influence(x, a, cfg.length, cfg.ei) for a in xs] for x in xs])
        q = np.zeros(cfg.n)
        for i, x in enumerate(xs):
            acc = 0.0
            for p in cfg.loads:
                acc += p.magnitude * influence(x, p.position, cfg.length, cfg.ei)
            q[i] = acc
        assert np.array_equal(flexibility_matrix(cfg), k)
        assert np.array_equal(load_vector(cfg), q)


def test_gen_beam_is_quick_and_keeps_stabilizers_apart():
    for n, seed in ((20, 0), (1000, 0), (1000, 1)):
        start = time.perf_counter()
        cfg = gen_beam(n, np.random.default_rng(seed))
        assert time.perf_counter() - start < 1.0
        xs = np.array([s.position for s in cfg.stabilizers])
        assert xs.size == n
        assert np.diff(xs).min() > 0.45 * cfg.length / n
        assert 0.0 < xs[0] and xs[-1] < cfg.length


@pytest.mark.parametrize("n", [10, 40, 80])
def test_paper_beams_solve_at_every_unit_scale(paper_beam, n):
    solves = set()
    for ei in (1.0, 2e7, 2e11):
        c = to_contact_lcp(paper_beam(n, ei))
        sol = solve_structured(c)
        assert sol.F_l.any() and sol.F_u.any()  # both walls carry load
        p = assemble(c)
        pivot = lemke_solve(p)
        assert validate(p, pivot.z, tol=1e-8 * np.abs(p.q).max()).solved
        z = np.concatenate([sol.F_l, sol.F_u])
        assert np.max(np.abs(z - pivot.z)) <= 1e-9 * np.abs(pivot.z).max()
        solves.add(sol.sweeps)
    assert len(solves) == 1


def test_thousand_stabilizer_beam_builds_and_solves_within_a_second(paper_beam):
    start = time.perf_counter()
    sol = solve_structured(to_contact_lcp(paper_beam(1000, 2e7)))
    assert time.perf_counter() - start < 1.0
    assert sol.F_l.any() and sol.F_u.any()


def _s_beam(n: int, ei: float) -> BeamConfig:
    """Evenly spaced stops and one load in each quarter of the span, alternating in sign."""
    stabilizers = [(10.0 * (i + 1) / (n + 1), 0.05) for i in range(n)]
    loads = [(x, m * ei) for x, m in ((1.3, 4.2), (3.6, -3.7), (6.2, 4.5), (8.8, -3.1))]
    return BeamConfig(10.0, ei, stabilizers, loads)


#: Linear solves of solve_structured, Lemke's pivots and the sign of d (+, -, 0 per
#: stabilizer) on each beam; they are the same at every unit scale.
_PINNED = {
    ("s", 10): (7, 12, "--0+0--0++"),
    ("s", 28): (13, 12, "00--00000++000000-000000++00"),
    ("s", 80): (
        28, 27, "0" * 9 + "--" + "0" * 17 + "++" + "0" * 19 + "--" + "0" * 19 + "++" + "0" * 8
    ),
    ("paper", 10): (8, 19, "0--0++0--0"),
    ("paper", 40): (16, 59, "0" * 9 + "--" + "0" * 8 + "++" + "0" * 8 + "--" + "0" * 9),
    ("paper", 80): (18, 111, "0" * 19 + "--" + "0" * 18 + "++" + "0" * 18 + "--" + "0" * 19),
}


@pytest.mark.parametrize(("layout", "n"), list(_PINNED))
@pytest.mark.parametrize("ei", [1.0, 2e7, 2e11])
def test_solve_counts_and_contact_patterns_are_pinned(paper_beam, layout, n, ei):
    solves, pivots, pattern = _PINNED[layout, n]
    c = to_contact_lcp((_s_beam if layout == "s" else paper_beam)(n, ei))
    sol = solve_structured(c)
    pivot = lemke_solve(assemble(c))

    def signs(d):
        return "".join("+" if v > 0.0 else "-" if v < 0.0 else "0" for v in d.tolist())

    assert (sol.sweeps, signs(sol.d)) == (solves, pattern)
    assert (pivot.iterations, signs(pivot.z[:n] - pivot.z[n:])) == (pivots, pattern)
