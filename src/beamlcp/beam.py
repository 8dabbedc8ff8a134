"""Simply supported Euler-Bernoulli beam between two rigid walls.

The influence function is the classical Green's function of the simply
supported beam: the deflection at x due to a unit transverse load at a.
Evaluated at the stabilizer positions it yields the (symmetric positive
definite) flexibility matrix K of the contact model; point loads superpose
into the offset vector q_tilde.  Deflections and loads are positive toward
the upper wall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactLcp
from .dense import as_matrix, as_vector
from .errors import DuplicatePositions, InvariantViolation, OutOfDomain

__all__ = [
    "Stabilizer",
    "PointLoad",
    "BeamConfig",
    "influence",
    "flexibility_matrix",
    "load_vector",
    "to_contact_lcp",
]


@dataclass(frozen=True)
class Stabilizer:
    """A two-sided stop at ``position`` with clearance ``gap`` to each wall."""

    position: float
    gap: float


@dataclass(frozen=True)
class PointLoad:
    """Transverse point load; positive magnitude pushes toward the upper wall."""

    position: float
    magnitude: float


@dataclass(frozen=True, eq=False)
class BeamConfig:
    """Beam of length ``length`` and bending stiffness ``ei`` with stops and loads.

    Stabilizer positions must be strictly increasing and strictly interior;
    gaps must be positive.  Load positions must also be interior (a load at a
    support would do nothing anyway).
    """

    length: float
    ei: float
    stabilizers: tuple
    loads: tuple = ()

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise InvariantViolation(f"length must be positive, got {self.length}")
        if not (self.ei > 0.0 and np.isfinite(self.ei)):
            raise InvariantViolation(f"ei must be positive, got {self.ei}")
        stabilizers = tuple(
            s if isinstance(s, Stabilizer) else Stabilizer(*s) for s in self.stabilizers
        )
        loads = tuple(p if isinstance(p, PointLoad) else PointLoad(*p) for p in self.loads)
        for s in stabilizers:
            if not 0.0 < s.position < self.length:
                raise OutOfDomain(
                    f"stabilizer position {s.position} outside (0, {self.length})"
                )
            if not s.gap > 0.0:
                raise InvariantViolation(f"stabilizer gap must be positive, got {s.gap}")
        for prev, nxt in zip(stabilizers, stabilizers[1:]):
            if nxt.position == prev.position:
                raise DuplicatePositions(f"duplicate stabilizer position {nxt.position}")
            if nxt.position < prev.position:
                raise InvariantViolation("stabilizer positions must be strictly increasing")
        for p in loads:
            if not 0.0 < p.position < self.length:
                raise OutOfDomain(f"load position {p.position} outside (0, {self.length})")
            if not np.isfinite(p.magnitude):
                raise InvariantViolation("load magnitude must be finite")
        object.__setattr__(self, "stabilizers", stabilizers)
        object.__setattr__(self, "loads", loads)

    @property
    def n(self) -> int:
        return len(self.stabilizers)


def influence(x: float, a: float, length: float, ei: float) -> float:
    """Deflection at x due to a unit load at a (simply supported beam).

    For x <= a with b = length - a:

        delta = b x (length^2 - b^2 - x^2) / (6 length ei)

    and symmetrically otherwise (Maxwell-Betti reciprocity).
    """
    if not 0.0 < x < length:
        raise OutOfDomain(f"evaluation point {x} outside (0, {length})")
    if not 0.0 < a < length:
        raise OutOfDomain(f"load position {a} outside (0, {length})")
    if x > a:
        x, a = a, x
    b = length - a
    return b * x * (length * length - b * b - x * x) / (6.0 * length * ei)


def _influence_table(xs: np.ndarray, a: np.ndarray, length: float, ei: float) -> np.ndarray:
    """influence(xs[i], a[j]) for all i, j, with the scalar formula's operation order."""
    x = np.minimum.outer(xs, a)
    b = length - np.maximum.outer(xs, a)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers reject non-finite entries
        return b * x * (length * length - b * b - x * x) / (6.0 * length * ei)


def _positions(items) -> np.ndarray:
    return np.array([item.position for item in items], dtype=np.float64)


def flexibility_matrix(cfg: BeamConfig) -> np.ndarray:
    """Influence matrix at the stabilizer positions; symmetric by construction."""
    xs = _positions(cfg.stabilizers)
    return as_matrix(_influence_table(xs, xs, cfg.length, cfg.ei), "flexibility matrix")


def load_vector(cfg: BeamConfig) -> np.ndarray:
    """Unconstrained deflection at the stabilizer positions under all loads."""
    table = _influence_table(_positions(cfg.stabilizers), _positions(cfg.loads), cfg.length, cfg.ei)
    q = np.zeros(cfg.n)
    for j, p in enumerate(cfg.loads):
        q += p.magnitude * table[:, j]
    return as_vector(q, "load vector")


def to_contact_lcp(cfg: BeamConfig) -> ContactLcp:
    """Contact model at the stabilizers: K from flexibility, y* from the gaps."""
    gaps = np.array([s.gap for s in cfg.stabilizers])
    return ContactLcp(flexibility_matrix(cfg), load_vector(cfg), gaps)
