"""Tests for the exhaustive support-enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest

from beamlcp import (
    DimensionTooLarge,
    LcpProblem,
    Verdict,
    assemble,
    certify_unique,
    enumerate_solutions,
    lemke_solve,
    validate,
)


def test_reference_1d_contact(contact_1d):
    p = assemble(contact_1d)
    res = enumerate_solutions(p, tol=1e-9)
    assert len(res.solutions) == 1
    assert np.allclose(res.solutions[0].z, [1.0, 0.0], rtol=0, atol=1e-12)
    assert res.solutions[0].solver_tag == "oracle"
    # The paired support is singular but inconsistent, so it contributes nothing.
    supports = {s.support: s.consistent for s in res.singular_supports}
    assert supports == {(0, 1): False}


def test_resting_contact_unique_zero(contact_1d_resting):
    p = assemble(contact_1d_resting)
    res = enumerate_solutions(p, tol=1e-9)
    assert len(res.solutions) == 1
    assert np.array_equal(res.solutions[0].z, np.zeros(2))


def test_reference_2d_certificate(contact_2d):
    p = assemble(contact_2d)
    res = certify_unique(p, tol=1e-9)
    assert res.verdict is Verdict.UNIQUE
    assert np.allclose(res.z, [7.0 / 6.0, 0.0, 0.0, 1.0 / 3.0], rtol=0, atol=1e-9)
    pivot = lemke_solve(p)
    assert np.max(np.abs(res.z - pivot.z)) <= 1e-9


def test_degenerate_problem_reports_multiple(degenerate_2d):
    res = certify_unique(degenerate_2d, tol=1e-9)
    assert res.verdict is Verdict.MULTIPLE
    assert res.z is None
    enum = res.enumeration
    assert len(enum.solutions) >= 2
    assert any(s.consistent for s in enum.singular_supports)
    for sol in enum.solutions:
        assert validate(degenerate_2d, sol.z, tol=1e-9).solved


def test_nonconvex_problem_reports_both_isolated_solutions():
    p = LcpProblem(np.array([[-1.0]]), np.array([1.0]))
    res = enumerate_solutions(p, tol=1e-9)
    assert len(res.solutions) == 2
    assert np.array_equal(res.solutions[0].z, np.zeros(1))
    assert np.allclose(res.solutions[1].z, [1.0], rtol=0, atol=1e-12)
    assert certify_unique(p).verdict is Verdict.MULTIPLE


def test_infeasible_problem_reports_none():
    p = LcpProblem(np.zeros((1, 1)), np.array([-1.0]))
    res = certify_unique(p, tol=1e-9)
    assert res.verdict is Verdict.NONE
    assert res.z is None
    assert res.enumeration.solutions == ()
    supports = {s.support: s.consistent for s in res.enumeration.singular_supports}
    assert supports == {(0,): False}


def test_dimension_cap():
    n = 15
    p = LcpProblem(np.eye(n), np.ones(n))
    with pytest.raises(DimensionTooLarge):
        enumerate_solutions(p, tol=1e-9, cap=14)
    res = enumerate_solutions(p, tol=1e-9, cap=15)
    assert len(res.solutions) == 1


def test_duplicate_supports_fold_with_multiplicity():
    p = LcpProblem(np.eye(2), np.array([0.0, -1.0]))
    res = enumerate_solutions(p, tol=1e-9)
    assert len(res.solutions) == 1
    assert np.array_equal(res.solutions[0].z, np.array([0.0, 1.0]))
    # Supports {1} and {0,1} land on the same point.
    assert res.multiplicities == (2,)


def test_enumeration_is_deterministic(degenerate_2d):
    a = enumerate_solutions(degenerate_2d, tol=1e-9)
    b = enumerate_solutions(degenerate_2d, tol=1e-9)
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa.z, sb.z)
    assert a.multiplicities == b.multiplicities
    assert a.singular_supports == b.singular_supports


def test_every_reported_solution_validates(rng):
    from beamlcp.generate import gen_general

    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = gen_general(n, rng)
        res = enumerate_solutions(p, tol=1e-9)
        for sol in res.solutions:
            assert validate(p, sol.z, tol=1e-9 * (1.0 + np.max(np.abs(p.q)))).solved


def integer_n6_s500() -> LcpProblem:
    rng = np.random.default_rng(500)
    m = rng.integers(-1, 2, (6, 6)).astype(float)
    return LcpProblem(m, rng.integers(-2, 3, 6).astype(float))


RAY_PROBLEMS = {
    # (t, 0) solves it for every t >= 2.
    "2x2": LcpProblem([[0.0, -1.0], [1.0, 1.0]], [0.0, -2.0]),
    # (t, 0, 1/2) solves it for every t >= 2.
    "3x3": LcpProblem([[0.0, -1.0, 0.0], [1.0, 5.0, 0.0], [0.0, 2.0, 2.0]], [0.0, -2.0, -1.0]),
    # (0, 0, 0, 2, 3, 3) and (0, 0, 0, 10, 11, 11) both solve it.
    "integer-n6-s500": integer_n6_s500(),
}


@pytest.mark.parametrize("name", list(RAY_PROBLEMS))
def test_a_family_whose_feasible_part_is_a_ray_makes_the_solution_multiple(name, exact_solution):
    """The singular support's family meets the other rows' ``w >= 0`` in a ray or segment."""
    p = RAY_PROBLEMS[name]
    res = certify_unique(p, tol=1e-8 * (1.0 + float(np.abs(p.q).max())))
    assert res.verdict is Verdict.MULTIPLE
    first, second = (
        exact_solution(p.M.tolist(), p.q.tolist(), sol.z) for sol in res.enumeration.solutions[:2]
    )
    assert first != second
