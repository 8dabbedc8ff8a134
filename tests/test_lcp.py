"""Tests for the LCP container and the solution validator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamlcp import (
    DimensionMismatch,
    LcpProblem,
    assemble,
    assemble_w,
    certify_unique,
    lcp,
    to_contact_lcp,
    validate,
)
from beamlcp.generate import gen_beam, gen_contact, gen_general
from beamlcp.lcp import w_rounding


def test_problem_validates_shapes():
    with pytest.raises(DimensionMismatch):
        LcpProblem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        LcpProblem(np.eye(2), np.ones(3))


def test_problem_dimension_property(contact_2d):
    p = assemble(contact_2d)
    assert p.n == 4


def test_assemble_w_reference(contact_1d):
    p = assemble(contact_1d)
    w = assemble_w(p, np.array([1.0, 0.0]))
    assert np.array_equal(w, np.array([0.0, 2.0]))


def test_assemble_w_rejects_wrong_length(contact_1d):
    p = assemble(contact_1d)
    with pytest.raises(DimensionMismatch):
        assemble_w(p, np.ones(3))


def test_validate_solved_point(contact_1d):
    p = assemble(contact_1d)
    rep = validate(p, np.array([1.0, 0.0]), tol=1e-9)
    assert rep.feasible and rep.solved
    assert rep.min_z == 0.0
    assert rep.min_w == 0.0
    assert rep.comp_gap == 0.0
    assert rep.per_index_violations == ()


def test_validate_feasible_but_not_solved(contact_1d_resting):
    p = assemble(contact_1d_resting)
    rep = validate(p, np.array([0.0, 1.0]), tol=1e-9)
    assert rep.feasible
    assert not rep.solved
    assert rep.comp_gap == pytest.approx(2.0)
    assert any(kind == "zw" for _, kind, _ in rep.per_index_violations)


def test_validate_tolerates_tiny_negatives(contact_1d):
    p = assemble(contact_1d)
    rep = validate(p, np.array([1.0, -1e-12]), tol=1e-9)
    assert rep.feasible and rep.solved


def test_validate_flags_negative_z(contact_1d):
    p = assemble(contact_1d)
    rep = validate(p, np.array([-1.0, 0.0]), tol=1e-9)
    assert not rep.feasible and not rep.solved
    assert (0, "z", 1.0) in rep.per_index_violations


def test_validate_flags_negative_w():
    p = LcpProblem(np.eye(1), np.array([-2.0]))
    rep = validate(p, np.zeros(1), tol=1e-9)
    assert not rep.feasible
    assert any(kind == "w" for _, kind, _ in rep.per_index_violations)


def test_validate_degenerate_index_is_not_a_violation():
    p = LcpProblem(np.eye(2), np.array([0.0, 1.0]))
    rep = validate(p, np.zeros(2), tol=1e-9)
    assert rep.solved
    assert rep.degenerate_indices == (0,)
    assert rep.per_index_violations == ()


def test_validate_per_term_complementarity():
    p = LcpProblem(np.zeros((2, 2)), np.array([1.0, 1.0]))
    rep = validate(p, np.array([1.0, 0.0]), tol=1e-9)
    assert rep.feasible and not rep.solved
    assert rep.per_index_violations == ((0, "zw", 1.0),)


def test_validate_allows_only_the_rounding_of_w_at_zero_tolerance():
    """``q = 0``: the ray ``t (3, 1)`` of this ``M`` leaves a rounding-sized ``w``."""
    p = LcpProblem(np.array([[0.1, -0.3], [-0.3, 0.9]]), np.zeros(2))
    z = np.array([3.0, 1.0])
    assert assemble_w(p, z).any()
    assert validate(p, z, tol=0.0).solved
    off = np.array([3.0, 1.0 - 1e-12])
    rep = validate(p, off, tol=0.0)
    assert not rep.solved
    assert [(i, kind) for i, kind, _ in rep.per_index_violations] == [(0, "zw"), (1, "w")]
    assert rep.per_index_violations[1][2] > 100 * w_rounding(p, off)


@settings(max_examples=100, deadline=None)
@given(
    q=hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(0, 1e6)),
)
def test_nonnegative_q_makes_zero_solved(q):
    p = LcpProblem(np.eye(q.shape[0]), q)
    rep = validate(p, np.zeros(q.shape[0]), tol=1e-9)
    assert rep.solved


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_validate_is_consistent_with_its_parts(seed, n):
    gen = np.random.default_rng(seed)
    p = LcpProblem(gen.standard_normal((n, n)), gen.standard_normal(n))
    z = gen.uniform(-1.0, 2.0, size=n)
    tol = 1e-9
    rep = validate(p, z, tol=tol)
    w = assemble_w(p, z)
    assert rep.min_z == z.min()
    assert rep.min_w == w.min()
    assert rep.comp_gap == float(z @ w)
    assert rep.feasible == (rep.min_z >= -tol and rep.min_w >= -tol)
    scale = tol * (1.0 + np.max(np.abs(p.q)) + np.max(np.abs(z)))
    assert rep.solved == (rep.feasible and abs(rep.comp_gap) <= scale)
    if rep.solved:
        assert rep.feasible


def test_max_row_sum_is_cached_and_leaves_validate_unchanged(monkeypatch):
    """The cached scales equal their formulas; ``validate``'s reports keep every field."""
    rng = np.random.default_rng(21)
    problems = [
        LcpProblem(np.zeros((0, 0)), np.zeros(0)),
        LcpProblem(np.zeros((2, 2)), [1.0, -1.0]),
        LcpProblem(rng.standard_normal((4, 4)), rng.standard_normal(4)),
        gen_general(5, rng),
        assemble(gen_contact(4, rng)),
        assemble(to_contact_lcp(gen_beam(4, rng))),
    ]
    points = []
    for p in problems:
        assert p.max_row_sum == float(np.abs(p.M).sum(axis=1).max(initial=0.0))
        assert p.__dict__["max_row_sum"] is p.max_row_sum
        assert p.max_abs_q == float(np.abs(p.q).max(initial=0.0))
        assert p.__dict__["max_abs_q"] is p.max_abs_q
        tol = 1e-8 * float(np.abs(p.q).max(initial=1.0))
        z_star = certify_unique(p, tol=tol, cap=p.n).z if p.n else None
        for z in (np.zeros(p.n), rng.uniform(-1.0, 2.0, p.n), z_star):
            if z is not None:
                points.append((p, z, tol))

    got = [validate(p, z, tol) for p, z, tol in points]

    def recomputed(problem, z):
        rows = float(np.abs(problem.M).sum(axis=1).max(initial=0.0))
        size = float(np.abs(problem.q).max(initial=0.0))
        size += rows * np.abs(z).max(axis=-1, initial=0.0)
        return (problem.n + 1) * np.finfo(np.float64).eps * size

    monkeypatch.setattr(lcp, "w_rounding", recomputed)
    assert got == [validate(p, z, tol) for p, z, tol in points]
    assert any(r.solved for r in got) and not all(r.solved for r in got)
