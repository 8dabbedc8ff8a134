"""Shared fixtures: small reference problems with hand-checkable solutions."""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np
import pytest

from beamlcp import BeamConfig, CascadeBlock, CascadeProblem, ContactLcp, LcpProblem


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdict lines collected during the run."""
    for name in ("tests.test_acceptance", "test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "VERDICT_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.VERDICT_LINES:
                terminalreporter.write_line(line)
            break


@pytest.fixture
def contact_1d() -> ContactLcp:
    """K=[[1]], q_tilde=(-2), y_star=(1): unique solution d=1, F_l=1."""
    return ContactLcp(np.array([[1.0]]), np.array([-2.0]), np.array([1.0]))


@pytest.fixture
def contact_1d_resting() -> ContactLcp:
    """K=[[1]], q_tilde=(0), y_star=(1): solution d=0, all forces zero."""
    return ContactLcp(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))


@pytest.fixture
def contact_2d() -> ContactLcp:
    """2-dof problem whose solution is d=(7/6, -1/3) with one active side each."""
    return ContactLcp(
        np.array([[2.0, 1.0], [1.0, 2.0]]),
        np.array([-3.0, 0.5]),
        np.array([1.0, 1.0]),
    )


@pytest.fixture
def chain_2_blocks() -> CascadeProblem:
    """Two 1-dof blocks coupled by Ktilde=[[1]]; solves to z=(1,0,1,0)."""
    return CascadeProblem(
        (
            CascadeBlock(np.array([[1.0]]), np.array([-1.0]), np.array([3.0])),
            CascadeBlock(
                np.array([[1.0]]),
                np.array([-2.0]),
                np.array([3.0]),
                ((0, np.array([[1.0]])),),
            ),
        )
    )


@pytest.fixture
def degenerate_2d() -> LcpProblem:
    """Singular PSD M with a consistent singular support: solution set is a ray."""
    return LcpProblem(
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.array([-1.0, 1.0]),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def _exact_solution(m, q, z) -> list[Fraction]:
    """``z`` rounded to fractions with denominator at most 1000, checked as an exact solution."""
    zf = [Fraction(x).limit_denominator(1000) for x in z]
    w = [
        Fraction(qi) + sum(Fraction(mij) * zj for mij, zj in zip(row, zf))
        for qi, row in zip(q, m)
    ]
    assert min(zf) >= 0 and min(w) >= 0
    assert all(zi * wi == 0 for zi, wi in zip(zf, w))
    return zf


@pytest.fixture
def exact_solution():
    """Check a float ``z`` as an exact solution of ``(M, q)`` (nested lists of floats)."""
    return _exact_solution


def _paper_beam(n: int, ei: float) -> BeamConfig:
    """n evenly spaced stabilizers with gap 0.05 and loads at the quarter spans.

    The loads are scaled by ei, so every ei describes the same deflections.
    """
    length = 10.0
    stabilizers = [(length * (i + 1) / (n + 1), 0.05) for i in range(n)]
    loads = [(0.25 * length, 4.0 * ei), (0.5 * length, -4.0 * ei), (0.75 * length, 4.0 * ei)]
    return BeamConfig(length, ei, stabilizers, loads)


@pytest.fixture
def paper_beam():
    """The paper's beam: ``paper_beam(n, ei)`` builds its ``BeamConfig``."""
    return _paper_beam
