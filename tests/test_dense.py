"""Tests for the dense input-validation layer and the solve in feasible_point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamlcp import (
    ContactLcp,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    as_matrix,
    as_vector,
    assemble,
    feasible_point,
    spd_factor,
)
from beamlcp.generate import gen_contact


def test_factor_reference_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = spd_factor(a)
    expected = np.array([[np.sqrt(2.0), 0.0], [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    assert np.allclose(L, expected, rtol=0, atol=1e-12)
    assert np.allclose(L @ L.T, a, rtol=1e-12, atol=0)
    assert L.shape == (2, 2)
    assert not L.flags.writeable


def test_factor_identity_is_identity():
    assert np.array_equal(spd_factor(np.eye(3)), np.eye(3))


def test_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_rejects_negative_definite():
    with pytest.raises(NotPositiveDefinite):
        spd_factor(-np.eye(2))


def test_factor_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        spd_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_factor_accepts_tiny_asymmetry():
    a = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    assert spd_factor(a).shape == (2, 2)


def test_factor_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        spd_factor(np.ones((2, 3)))


def _solve_by_feasible_point(k, b):
    """Solve k x = b through feasible_point, whose d solves K d = -(q_tilde + y*).

    Returns x and the right-hand side actually solved, -(q_tilde + y*),
    which differs from b by the rounding of q_tilde = -b - 1.
    """
    c = ContactLcp(k, -np.asarray(b) - 1.0, np.ones(len(b)))
    z = feasible_point(c).z
    return z[: c.n] - z[c.n :], -(c.q_tilde + c.y_star)


def test_solve_reference_system():
    x, _ = _solve_by_feasible_point(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0])
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-14)


def test_solve_matches_dense_solve_on_ill_conditioned_matrix():
    # Q diag(s) Q' with s spread over 6.5 decades: cond(A) ~ 3e6.
    gen = np.random.default_rng(50)
    n = 50
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    a = (q * np.logspace(0.0, -6.5, n)) @ q.T
    a = 0.5 * (a + a.T)
    cond = np.linalg.cond(a)
    assert cond >= 1e6
    x, b = _solve_by_feasible_point(a, gen.standard_normal(n))
    ref = np.linalg.solve(a, b)
    # Backward error: the relative residual is at rounding level whatever cond(A) is.
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(x)
    # Forward error: two backward-stable solves differ by O(cond(A) * eps) relative.
    assert np.linalg.norm(x - ref) <= 1e-14 * cond * np.linalg.norm(ref)


def test_feasible_point_zeroes_the_lower_gap_at_n40():
    c = gen_contact(40, np.random.default_rng(40))
    sol = feasible_point(c)
    q = assemble(c).q
    assert np.abs(sol.w[:40]).max() <= 1e-10 * (1.0 + np.abs(q).max())
    assert sol.z.min() >= 0.0


def test_as_vector_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], "q")
    with pytest.raises(ValueError):
        as_vector([np.inf], "q")
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]], "q")


def test_as_matrix_rejects_nonfinite_and_wrong_rank():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]], "M")
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0], "M")


def test_returned_arrays_are_read_only():
    v = as_vector([1.0, 2.0], "q")
    m = as_matrix([[1.0, 0.0], [0.0, 1.0]], "M")
    with pytest.raises(ValueError):
        v[0] = 5.0
    with pytest.raises(ValueError):
        m[0, 0] = 5.0


def test_inputs_are_copied_not_aliased():
    src = np.array([[2.0, 0.0], [0.0, 2.0]])
    L = spd_factor(src)
    src[0, 0] = -1.0
    assert L[0, 0] == np.sqrt(2.0)


def test_random_spd_quadratic_forms_positive(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        k = a.T @ a + n * np.eye(n)
        spd_factor(k)
        x = rng.standard_normal(n)
        assert x @ k @ x > 0.0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=hnp.arrays(
        np.float64,
        st.integers(1, 8),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
)
def test_solve_residual_is_small(seed, b):
    n = b.shape[0]
    gen = np.random.default_rng(seed)
    a = gen.uniform(-1.0, 1.0, size=(n, n))
    k = a.T @ a + n * np.eye(n)
    x, b = _solve_by_feasible_point(k, b)
    assert np.max(np.abs(k @ x - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))
