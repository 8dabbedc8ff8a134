"""Tests for the two-sided contact formulation and the active-set solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamlcp import (
    ContactLcp,
    DimensionMismatch,
    InvariantViolation,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    NotSymmetric,
    PgsOptions,
    assemble,
    certify_unique,
    feasible_point,
    force_complementarity,
    gaps,
    lemke_solve,
    solve_structured,
    split_signed,
    validate,
    Verdict,
)
from beamlcp import contact
from beamlcp.generate import gen_contact


def test_construction_rejects_bad_inputs():
    k = np.array([[1.0]])
    with pytest.raises(InvariantViolation):
        ContactLcp(k, np.array([0.0]), np.array([0.0]))
    with pytest.raises(InvariantViolation):
        ContactLcp(k, np.array([0.0]), np.array([-1.0]))
    with pytest.raises(NotPositiveDefinite):
        ContactLcp(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), np.ones(2))
    with pytest.raises(NotSymmetric):
        ContactLcp(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        ContactLcp(k, np.zeros(2), np.ones(1))
    with pytest.raises(DimensionMismatch):
        ContactLcp(k, np.zeros(1), np.ones(2))


def test_assemble_reference(contact_1d):
    p = assemble(contact_1d)
    assert np.array_equal(p.M, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.array_equal(p.q, np.array([-1.0, 3.0]))


def test_assemble_blocks_are_bitwise_copies(contact_2d):
    p = assemble(contact_2d)
    n = 2
    assert np.array_equal(p.M[:n, :n], contact_2d.K)
    assert np.array_equal(p.M[n:, n:], contact_2d.K)
    assert np.array_equal(p.M[:n, n:], -contact_2d.K)
    assert np.array_equal(p.M[n:, :n], -contact_2d.K)


def test_block_matvec_annihilates_paired_vectors(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = gen_contact(n, rng)
        m = assemble(c).M
        u = rng.standard_normal(n)
        out = m[:, :n] @ u + m[:, n:] @ u
        assert np.array_equal(out, np.zeros(2 * n))


def test_feasible_point_reference(contact_1d_resting):
    sol = feasible_point(contact_1d_resting)
    assert np.array_equal(sol.z, np.array([0.0, 1.0]))
    assert np.allclose(sol.w, [0.0, 2.0], rtol=0, atol=1e-12)
    assert sol.complementarity_gap == pytest.approx(2.0)
    assert sol.solver_tag == "feasible-point"
    assert sol.iterations == 0


def test_feasible_point_does_not_form_the_block_matrix(monkeypatch, contact_1d_resting):
    def no_assemble(c):
        raise AssertionError("feasible_point formed the 2n x 2n block matrix")

    monkeypatch.setattr(contact, "assemble", no_assemble)
    sol = feasible_point(contact_1d_resting)
    assert np.array_equal(sol.z, np.array([0.0, 1.0]))


def test_gaps_rejects_a_wrong_length_d(contact_2d):
    with pytest.raises(DimensionMismatch):
        gaps(contact_2d, np.ones(3))


def test_feasible_point_is_feasible_with_known_gaps(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = gen_contact(n, rng)
        sol = feasible_point(c)
        assert sol.z.min() >= 0.0
        expected_w = np.concatenate([np.zeros(n), 2.0 * c.y_star])
        assert np.max(np.abs(sol.w - expected_w)) <= 1e-9 * (1.0 + np.max(np.abs(expected_w)))
        p = assemble(c)
        assert validate(p, sol.z, tol=1e-9 * (1.0 + np.max(np.abs(p.q)))).feasible


def test_gaps_reference(contact_2d):
    d = np.array([7.0 / 6.0, -1.0 / 3.0])
    gamma_l, gamma_u = gaps(contact_2d, d)
    assert np.allclose(gamma_l, [0.0, 2.0], rtol=0, atol=1e-14)
    assert np.allclose(gamma_u, [2.0, 0.0], rtol=0, atol=1e-14)


def test_gap_sum_identity_is_exact(rng):
    for _ in range(300):
        n = int(rng.integers(1, 9))
        c = gen_contact(n, rng)
        d = rng.standard_normal(n) * 10.0
        gamma_l, gamma_u = gaps(c, d)
        residual = (2.0 * c.y_star - gamma_l) - gamma_u
        assert np.array_equal(residual, np.zeros(n))


def test_split_signed_reference():
    f_l, f_u = split_signed(np.array([7.0 / 6.0, -1.0 / 3.0, 0.0]))
    assert np.array_equal(f_l, np.array([7.0 / 6.0, 0.0, 0.0]))
    assert np.array_equal(f_u, np.array([0.0, 1.0 / 3.0, 0.0]))


@settings(max_examples=100, deadline=None)
@given(
    d=hnp.arrays(
        np.float64,
        st.integers(1, 8),
        elements=st.floats(-1e12, 1e12, allow_nan=False),
    )
)
def test_split_signed_properties(d):
    f_l, f_u = split_signed(d)
    assert f_l.min() >= 0.0
    assert f_u.min() >= 0.0
    assert np.array_equal(f_l - f_u, d)
    assert np.array_equal(f_l * f_u, np.zeros_like(d))


def test_solve_structured_reference(contact_1d):
    sol = solve_structured(contact_1d)
    assert np.allclose(sol.d, [1.0], rtol=0, atol=1e-12)
    assert np.allclose(sol.F_l, [1.0], rtol=0, atol=1e-12)
    assert np.array_equal(sol.F_u, np.zeros(1))
    assert np.allclose(sol.gamma_l, [0.0], rtol=0, atol=1e-12)
    assert np.allclose(sol.gamma_u, [2.0], rtol=0, atol=1e-12)
    assert sol.solver_tag == "pgs"
    assert sol.sweeps >= 1


def test_solve_structured_resting_case(contact_1d_resting):
    sol = solve_structured(contact_1d_resting)
    assert np.array_equal(sol.d, np.zeros(1))
    assert np.array_equal(sol.F_l, np.zeros(1))
    assert np.array_equal(sol.F_u, np.zeros(1))


def test_solve_structured_matches_pivot_solver(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        c = gen_contact(n, rng)
        pivot = lemke_solve(assemble(c))
        sol = solve_structured(c)
        z = np.concatenate([sol.F_l, sol.F_u])
        assert np.max(np.abs(z - pivot.z)) <= 1e-7


def test_solve_structured_solution_validates(contact_2d):
    sol = solve_structured(contact_2d)
    p = assemble(contact_2d)
    rep = validate(p, sol.as_lcp_solution().z, tol=1e-8 * (1.0 + np.max(np.abs(p.q))))
    assert rep.solved
    assert force_complementarity(sol) == 0.0
    residual = (2.0 * contact_2d.y_star - sol.gamma_l) - sol.gamma_u
    assert np.array_equal(residual, np.zeros(2))


def test_solve_structured_unique_certificate(rng):
    for _ in range(25):
        c = gen_contact(int(rng.integers(1, 4)), rng)
        res = certify_unique(assemble(c), tol=1e-9)
        assert res.verdict is Verdict.UNIQUE
        sol = solve_structured(c)
        z = np.concatenate([sol.F_l, sol.F_u])
        assert np.max(np.abs(z - res.z)) <= 1e-7


def _needs_a_drop() -> ContactLcp:
    """d = (30/17, -1/17); reached in 4 solves, one dropping d_1 before it flips sign."""
    return ContactLcp(
        np.array([[3.0, 5.0], [5.0, 14.0]]), np.array([-7.0, -7.0]), np.array([2.0, 1.0])
    )


def test_solve_structured_drops_and_flips_an_index():
    sol = solve_structured(_needs_a_drop())
    assert np.allclose(sol.d, [30.0 / 17.0, -1.0 / 17.0], rtol=0, atol=1e-14)
    assert sol.sweeps == 4


def test_solve_structured_solve_limit(monkeypatch):
    c = _needs_a_drop()
    monkeypatch.setattr(contact, "MAX_SOLVES_PER_DIM", 1)
    with pytest.raises(MaxIterationsExceeded) as exc_info:
        solve_structured(c)
    exc = exc_info.value
    assert exc.last_d is not None
    assert exc.residual is not None

    # The residual is the distance of 0 from the subdifferential [lo, hi] of
    # f(d) = 0.5 d'Kd + c'd + sum 2 y* max(-d, 0) at the last iterate.
    cvec = c.q_tilde + c.y_star
    two_y = 2.0 * c.y_star
    d = np.asarray(exc.last_d)
    g = c.K @ d + cvec
    lo = np.where(d > 0.0, g, g - two_y)
    hi = np.where(d < 0.0, g - two_y, g)
    dist = np.maximum(np.maximum(lo, -hi), 0.0).max()
    assert dist == pytest.approx(exc.residual, rel=1e-12, abs=1e-15)
    max_q = np.abs(np.concatenate([cvec, two_y - cvec])).max()
    assert exc.residual > PgsOptions().tol_scale * max_q


def test_as_lcp_solution_round_trip(contact_2d):
    sol = solve_structured(contact_2d)
    lcp_sol = sol.as_lcp_solution()
    assert np.array_equal(lcp_sol.z, np.concatenate([sol.F_l, sol.F_u]))
    assert np.array_equal(lcp_sol.w, np.concatenate([sol.gamma_l, sol.gamma_u]))
    assert lcp_sol.solver_tag == "pgs"
