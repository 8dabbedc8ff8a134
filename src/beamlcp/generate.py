"""Deterministic pseudo-random problem instances.

All randomness flows through an explicit numpy Generator, so a fixed seed
reproduces instances bit-for-bit.  SPD matrices are built as A'A + n I with
A uniform in [-1, 1]; offsets are uniform in [-5, 5], clearances in
(0.1, 2], couplings in [-1, 1].
"""

from __future__ import annotations

import numpy as np

from .beam import BeamConfig, PointLoad, Stabilizer
from .cascade import CascadeBlock, CascadeProblem
from .contact import ContactLcp
from .lcp import LcpProblem

__all__ = ["gen_general", "gen_contact", "gen_cascade", "gen_beam", "gen_problem"]


def _spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return a.T @ a + n * np.eye(n)


def gen_general(n: int, rng: np.random.Generator) -> LcpProblem:
    """A well-conditioned SPD instance with uniform q."""
    return LcpProblem(_spd(n, rng), rng.uniform(-5.0, 5.0, size=n))


def gen_contact(n: int, rng: np.random.Generator) -> ContactLcp:
    return ContactLcp(
        _spd(n, rng),
        rng.uniform(-5.0, 5.0, size=n),
        rng.uniform(0.1, 2.0, size=n),
    )


def gen_cascade(t: int, n: int, rng: np.random.Generator) -> CascadeProblem:
    """t blocks with sizes drawn from 1..n, fully coupled to earlier blocks."""
    sizes = [int(rng.integers(1, n + 1)) for _ in range(t)]
    blocks = []
    for i, ni in enumerate(sizes):
        q_tilde = rng.uniform(-5.0, 5.0, size=ni)
        y_star = rng.uniform(0.1, 2.0, size=ni)
        couplings = [
            (j, rng.uniform(-1.0, 1.0, size=(ni, sizes[j]))) for j in range(i)
        ]
        blocks.append(
            CascadeBlock(
                _spd(ni, rng), q_tilde + y_star, -q_tilde + y_star, tuple(couplings)
            )
        )
    return CascadeProblem(tuple(blocks))


def gen_beam(n: int, rng: np.random.Generator) -> BeamConfig:
    """A beam with n interior stabilizers (well separated) and n point loads.

    The stabilizers lie in [0.05, 0.95] of the span, neighbours more than
    half the mean spacing apart: each spacing is that minimum plus a
    Dirichlet share of the rest of the interval, so drawing them is O(n).
    """
    length = float(rng.uniform(5.0, 15.0))
    ei = float(rng.uniform(0.5, 2.0))
    min_sep = 0.5 * 0.9 * length / max(n, 1)
    spacings = rng.dirichlet(np.ones(n + 1)) * (0.9 * length - max(n - 1, 0) * min_sep)
    spacings[1:n] += min_sep
    xs = 0.05 * length + np.cumsum(spacings[:n])
    stabilizers = tuple(
        Stabilizer(float(x), float(rng.uniform(0.1, 2.0))) for x in xs
    )
    loads = tuple(
        PointLoad(float(rng.uniform(0.05 * length, 0.95 * length)), float(rng.uniform(-5.0, 5.0)))
        for _ in range(n)
    )
    return BeamConfig(length, ei, stabilizers, loads)


def gen_problem(kind: str, n: int, t: int, seed: int):
    """Dispatch by file kind; the entry point used by the CLI."""
    rng = np.random.default_rng(seed)
    if kind == "general":
        return gen_general(n, rng)
    if kind == "contact":
        return gen_contact(n, rng)
    if kind == "cascade":
        return gen_cascade(t, n, rng)
    if kind == "beam":
        return gen_beam(n, rng)
    raise ValueError(f"unknown kind {kind!r}")
