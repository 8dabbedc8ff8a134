"""Tests for the complementary pivot solver."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from beamlcp import (
    BeamConfig,
    LcpProblem,
    NumericalBreakdown,
    PivotLimitExceeded,
    RayTermination,
    assemble,
    assemble_full,
    enumerate_solutions,
    lemke_solve,
    to_contact_lcp,
    validate,
)
from beamlcp.generate import gen_cascade, gen_contact


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
    with pytest.raises(PivotLimitExceeded, match="no termination within 1.0 pivots"):
        lemke_solve(assemble(contact_1d))
    monkeypatch.undo()
    assert lemke_solve(assemble(contact_1d)).iterations == 2


def test_random_structured_problems_solve(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = gen_contact(n, rng)
        p = assemble(c)
        sol = lemke_solve(p)
        tol = 1e-8 * np.max(np.abs(p.q))
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


def s_load_beam(n: int, ei: float) -> BeamConfig:
    """n evenly spaced stabilizers with gap 0.05 under four loads of alternating sign.

    The loads bend the beam into an S, so it touches both walls.  They are
    scaled by ei, so every ei describes the same deflections.
    """
    length = 10.0
    stabilizers = [(length * (i + 1) / (n + 1), 0.05) for i in range(n)]
    loads = [(1.3, 4.0 * ei), (3.6, -3.5 * ei), (6.1, 4.5 * ei), (8.7, -4.0 * ei)]
    return BeamConfig(length, ei, stabilizers, loads)


def pinned_problem(spec, paper_beam) -> LcpProblem:
    """The LCP of ``(kind, n, ei or seed)``."""
    kind, n, arg = spec
    if kind == "s-load":
        return assemble(to_contact_lcp(s_load_beam(n, arg)))
    if kind == "paper":
        return assemble(to_contact_lcp(paper_beam(n, arg)))
    if kind == "contact":
        return assemble(gen_contact(n, np.random.default_rng(arg)))
    return assemble_full(gen_cascade(4, n, np.random.default_rng(arg)))


#: Pivot count and a digest of the bits of z.  The paper beams tie often, so
#: their lexicographic test reads both basic and nonbasic w columns; the
#: cascade's M is not symmetric.
PINNED_RUNS = [
    (("s-load", 10, 1.0), 12, "f2e4d0106297ef49"),
    (("s-load", 10, 2e7), 12, "c50ce7dd1c167885"),
    (("s-load", 10, 2e11), 12, "512b2ca0be3e23a7"),
    (("s-load", 47, 1.0), 19, "437065646175273e"),
    (("s-load", 47, 2e7), 19, "23283d1c11101334"),
    (("s-load", 47, 2e11), 19, "76e454a637d63454"),
    (("s-load", 80, 1.0), 29, "233d7f4e1dc8b174"),
    (("s-load", 80, 2e7), 29, "234ae0545267d5b8"),
    (("s-load", 80, 2e11), 29, "e9522d2cd42afa5f"),
    (("paper", 10, 1.0), 19, "db264567e3a827ef"),
    (("paper", 10, 2e7), 19, "9d049429051f1961"),
    (("paper", 10, 2e11), 19, "bf1ba682a3bc323a"),
    (("paper", 40, 1.0), 59, "af6e449350d01aa3"),
    (("paper", 40, 2e7), 59, "4a4a095f1f719dd0"),
    (("paper", 40, 2e11), 59, "05191e057e725cc8"),
    (("contact", 12, 0), 10, "ad3569a1eae5ecf5"),
    (("contact", 40, 1), 34, "c9fc484e78b35006"),
    (("cascade", 5, 0), 13, "4330ddea1f7e546d"),
]


@pytest.mark.parametrize(
    ("spec", "pivots", "digest"),
    PINNED_RUNS,
    ids=["-".join(map(str, run[0])) for run in PINNED_RUNS],
)
def test_pivots_and_z_are_pinned_bit_for_bit(paper_beam, spec, pivots, digest):
    sol = lemke_solve(pinned_problem(spec, paper_beam))
    bits = " ".join(map(float.hex, sol.z)).encode()
    assert (sol.iterations, hashlib.sha256(bits).hexdigest()[:16]) == (pivots, digest)


def test_only_sub_tolerance_positive_entries_are_a_breakdown():
    p = LcpProblem(np.diag([1e20, 1e-300]), np.array([-1.0, -1.0]))
    message = "entering column has only sub-tolerance positive entries"
    with pytest.raises(NumericalBreakdown, match=message):
        lemke_solve(p)
