"""Tests for the complementary pivot solver."""

from __future__ import annotations

import numpy as np
import pytest

from beamlcp import (
    LcpProblem,
    PivotLimitExceeded,
    RayTermination,
    assemble,
    enumerate_solutions,
    lemke_solve,
    validate,
)
from beamlcp.generate import gen_contact


def test_reference_1d(contact_1d):
    sol = lemke_solve(assemble(contact_1d))
    assert np.allclose(sol.z, [1.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(sol.w, [0.0, 2.0], rtol=0, atol=1e-12)
    assert sol.solver_tag == "lemke"
    assert sol.iterations >= 1


def test_nonnegative_q_fast_path():
    p = LcpProblem(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 1.0]))
    sol = lemke_solve(p)
    assert np.array_equal(sol.z, np.zeros(2))
    assert np.array_equal(sol.w, p.q)
    assert sol.iterations == 0


def test_reference_2d_matches_enumeration(contact_2d):
    p = assemble(contact_2d)
    sol = lemke_solve(p)
    assert np.allclose(sol.z, [7.0 / 6.0, 0.0, 0.0, 1.0 / 3.0], rtol=0, atol=1e-9)
    enum = enumerate_solutions(p, tol=1e-9)
    assert len(enum.solutions) == 1
    assert np.allclose(sol.z, enum.solutions[0].z, rtol=0, atol=1e-9)


def test_nonbasic_entries_are_exact_zeros(contact_2d):
    sol = lemke_solve(assemble(contact_2d))
    assert sol.z[1] == 0.0
    assert sol.z[2] == 0.0


def test_handles_asymmetric_matrix(chain_2_blocks):
    from beamlcp import assemble_full

    p = assemble_full(chain_2_blocks)
    assert not np.array_equal(p.M, p.M.T)
    sol = lemke_solve(p)
    assert np.allclose(sol.z, [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-9)


def test_ray_termination_on_infeasible_problem():
    with pytest.raises(RayTermination):
        lemke_solve(LcpProblem(np.zeros((1, 1)), np.array([-1.0])))
    with pytest.raises(RayTermination):
        lemke_solve(LcpProblem(np.array([[-1.0]]), np.array([-1.0])))


def test_pivot_limit(contact_1d, monkeypatch):
    import beamlcp.lemke

    # A budget of one pivot at n = 2; the solve needs two.
    monkeypatch.setattr(beamlcp.lemke, "MAX_PIVOTS_PER_DIM_SQUARED", 0.25)
    with pytest.raises(PivotLimitExceeded):
        lemke_solve(assemble(contact_1d))
    monkeypatch.undo()
    assert lemke_solve(assemble(contact_1d)).iterations == 2


def test_random_structured_problems_solve(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = gen_contact(n, rng)
        p = assemble(c)
        sol = lemke_solve(p)
        tol = 1e-8 * (1.0 + np.max(np.abs(p.q)))
        rep = validate(p, sol.z, tol=tol)
        assert rep.solved, (rep, n)


def test_solution_set_is_convex_on_degenerate_problem(degenerate_2d):
    enum = enumerate_solutions(degenerate_2d, tol=1e-9)
    assert len(enum.solutions) >= 2
    sols = enum.solutions
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            diff = degenerate_2d.M @ sols[i].z - degenerate_2d.M @ sols[j].z
            assert np.max(np.abs(diff)) <= 1e-8
            mid = 0.5 * (sols[i].z + sols[j].z)
            assert validate(degenerate_2d, mid, tol=1e-9).solved


def test_solution_w_is_reassembled(contact_1d):
    p = assemble(contact_1d)
    sol = lemke_solve(p)
    assert np.array_equal(sol.w, p.q + p.M @ sol.z)


@pytest.mark.parametrize("k", [-40, -13, -1, 1, 7, 40])
def test_power_of_two_scaling_of_m_scales_z_exactly(rng, k):
    for _ in range(10):
        p = assemble(gen_contact(int(rng.integers(1, 8)), rng))
        z = lemke_solve(p).z
        scaled = lemke_solve(LcpProblem(2.0**k * p.M, p.q)).z
        assert np.array_equal(scaled, z / 2.0**k)
