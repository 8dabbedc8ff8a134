"""Tests for sequential block elimination on lower-triangular chains."""

from __future__ import annotations

import numpy as np
import pytest

from beamlcp import (
    CascadeBlock,
    CascadeProblem,
    DimensionMismatch,
    InvariantViolation,
    as_lcp_solution,
    assemble_full,
    assemble_w,
    cascade_stages,
    lemke_solve,
    solve_cascade,
    solve_structured,
    validate,
)
from beamlcp.generate import gen_cascade, gen_contact


def test_block_requires_positive_gap_sum():
    with pytest.raises(InvariantViolation):
        CascadeBlock(np.eye(1), np.array([1.0]), np.array([-1.0]))
    # The stage's clearance (q1 + q2) / 2 underflows to 0, or overflows to inf.
    for q1, q2 in ((5e-324, 0.0), (1e308, 1e308)):
        with pytest.raises(InvariantViolation):
            CascadeBlock(np.eye(1), np.array([q1]), np.array([q2]))


def test_block_rejects_duplicate_coupling_targets():
    with pytest.raises(InvariantViolation):
        CascadeBlock(
            np.eye(1),
            np.array([0.0]),
            np.array([1.0]),
            ((0, np.eye(1)), (0, np.eye(1))),
        )


def test_problem_rejects_forward_couplings():
    blocks = (
        CascadeBlock(np.eye(1), np.array([0.0]), np.array([1.0])),
        CascadeBlock(np.eye(1), np.array([0.0]), np.array([1.0]), ((1, np.eye(1)),)),
    )
    with pytest.raises(InvariantViolation):
        CascadeProblem(blocks)


def test_problem_rejects_coupling_shape_mismatch():
    blocks = (
        CascadeBlock(np.eye(2), np.zeros(2), np.ones(2)),
        CascadeBlock(np.eye(1), np.zeros(1), np.ones(1), ((0, np.eye(1)),)),
    )
    with pytest.raises(DimensionMismatch):
        CascadeProblem(blocks)


def test_reference_chain_stages(chain_2_blocks):
    stages = cascade_stages(chain_2_blocks)
    assert len(stages) == 2
    assert np.array_equal(stages[0].q_hat1, np.array([-1.0]))
    assert np.array_equal(stages[0].q_hat2, np.array([3.0]))
    # Stage 0 solves to a net downward force of 1, which shifts stage 1.
    assert np.array_equal(stages[1].q_hat1, np.array([-1.0]))
    assert np.array_equal(stages[1].q_hat2, np.array([2.0]))


def test_reference_chain_solution(chain_2_blocks):
    sols = solve_cascade(chain_2_blocks)
    stacked = as_lcp_solution(chain_2_blocks, sols)
    assert np.allclose(stacked.z, [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-9)
    assert stacked.solver_tag == "cascade"


def test_reference_chain_matches_pivot_solver(chain_2_blocks):
    full = assemble_full(chain_2_blocks)
    pivot = lemke_solve(full)
    stacked = as_lcp_solution(chain_2_blocks, solve_cascade(chain_2_blocks))
    assert np.max(np.abs(stacked.z - pivot.z)) <= 1e-9
    rep = validate(full, stacked.z, tol=1e-8 * (1.0 + np.max(np.abs(full.q))))
    assert rep.solved


def test_assemble_full_reference(chain_2_blocks):
    full = assemble_full(chain_2_blocks)
    expected_m = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0, 1.0],
        ]
    )
    assert np.array_equal(full.M, expected_m)
    assert np.array_equal(full.q, np.array([-1.0, 3.0, -2.0, 3.0]))
    assert not np.array_equal(full.M, full.M.T)


def test_assemble_full_places_unequal_blocks(rng):
    # Blocks of sizes 1, 3 and 2 start at rows 0, 2 and 8; block 2 couples to
    # block 1 only, so its columns of block 0 stay zero.
    sizes, offsets = (1, 3, 2), (0, 2, 8)
    ks = [gen_contact(n, rng).K for n in sizes]
    ktilde = {(1, 0): rng.uniform(-1.0, 1.0, (3, 1)), (2, 1): rng.uniform(-1.0, 1.0, (2, 3))}
    blocks = tuple(
        CascadeBlock(
            ks[i],
            np.arange(1.0, n + 1) + 10 * i,
            np.arange(1.0, n + 1) + 20 * i,
            tuple((j, k) for (row, j), k in ktilde.items() if row == i),
        )
        for i, n in enumerate(sizes)
    )
    full = assemble_full(CascadeProblem(blocks))
    assert full.M.shape == (12, 12)
    expected = {(i, i): ks[i] for i in range(3)} | ktilde
    for i, j in np.ndindex(3, 3):
        k = expected.get((i, j), np.zeros((sizes[i], sizes[j])))
        ni, nj, r, c = sizes[i], sizes[j], offsets[i], offsets[j]
        assert np.array_equal(full.M[r : r + ni, c : c + nj], k), (i, j)
        assert np.array_equal(full.M[r : r + ni, c + nj : c + 2 * nj], -k), (i, j)
        assert np.array_equal(full.M[r + ni : r + 2 * ni, c : c + nj], -k), (i, j)
        assert np.array_equal(full.M[r + ni : r + 2 * ni, c + nj : c + 2 * nj], k), (i, j)
    assert np.array_equal(full.q, np.concatenate([v for b in blocks for v in (b.q1, b.q2)]))


def test_gap_sum_identity_is_exact_per_stage(rng):
    for _ in range(300):
        t = int(rng.integers(1, 4))
        p = gen_cascade(t, 3, rng)
        for blk, stage in zip(p.blocks, cascade_stages(p)):
            residual = ((blk.q1 + blk.q2) - stage.q_hat1) - stage.q_hat2
            assert np.array_equal(residual, np.zeros(blk.q1.shape[0]))


def test_stage_gaps_sum_exactly_to_the_block_gap_sum():
    # gamma_u is formed as 2 y* - gamma_l; the stage's y* must be half the
    # block's q1 + q2 itself, not half of q_hat1 + q_hat2, which can round.
    for seed in range(300):
        p = gen_cascade(4, 5, np.random.default_rng(seed))
        for i, (blk, sol) in enumerate(zip(p.blocks, solve_cascade(p))):
            assert np.array_equal((blk.q1 + blk.q2) - sol.gamma_l, sol.gamma_u), (seed, i)


def test_random_chains_match_pivot_solver(rng):
    for _ in range(100):
        t = int(rng.integers(1, 4))
        p = gen_cascade(t, 3, rng)
        full = assemble_full(p)
        pivot = lemke_solve(full)
        sols = solve_cascade(p)
        stacked = as_lcp_solution(p, sols)
        assert np.max(np.abs(stacked.z - pivot.z)) <= 1e-7
        rep = validate(full, stacked.z, tol=1e-8 * (1.0 + np.max(np.abs(full.q))))
        assert rep.solved
        # The stacked w is each block's own gaps, and those are the assembled
        # problem's w to rounding.
        own = np.concatenate([np.concatenate([s.gamma_l, s.gamma_u]) for s in sols])
        assert np.array_equal(stacked.w, own)
        w = assemble_w(full, stacked.z)
        assert np.max(np.abs(stacked.w - w)) <= 1e-14 * (1.0 + np.max(np.abs(w)))


def test_single_block_chain_reduces_to_contact_solve(rng):
    c = gen_contact(3, rng)
    p = CascadeProblem(
        (CascadeBlock(c.K, c.q_tilde + c.y_star, -c.q_tilde + c.y_star),)
    )
    chained = solve_cascade(p)[0]
    direct = solve_structured(c)
    # The stage rebuilds q_tilde as q_hat1 - y* with y* = (q1 + q2) / 2, so
    # agreement is to rounding rather than bitwise.
    assert np.max(np.abs(chained.d - direct.d)) <= 1e-12 * (1.0 + np.max(np.abs(direct.d)))


def test_stage_count_and_dimensions(rng):
    p = gen_cascade(3, 4, rng)
    assert p.t == 3
    # Each block contributes both a lower and an upper force variable.
    assert p.total_dim == 2 * sum(b.K.shape[0] for b in p.blocks)
    stages = cascade_stages(p)
    assert len(stages) == 3
    for blk, stage in zip(p.blocks, stages):
        assert stage.solution.d.shape[0] == blk.K.shape[0]
