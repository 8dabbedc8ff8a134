"""Seeded problem files for the benchmark workloads.

Nothing here imports beamlcp: the problems are built with NumPy from the
workload seed and written as problem-file JSON, so a change to the
package's own generators or serializers leaves the workloads unchanged.
Floats are written with ``repr`` (the ``json`` default), so the file holds
exactly the values kept in ``Problem.payload``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Unit scales (bending stiffness ``ei``) every beam of beam_batch runs at;
#: its loads are scaled by the same factor.
BEAM_SCALES = (1.0, 2e7, 2e11)
#: Stabilizer counts of beam_batch: fixed across seeds, so the cost of the
#: fixed PGS sweep budget is the same for every seed; the seed moves the loads.
BEAM_SIZES = (10, 17, 28, 47, 80)
BEAM_LENGTH = 10.0
BEAM_GAP = 0.05

#: The singular PSD fixture: its solution set is a ray, verdict "multiple".
SINGULAR_PSD = {"M": [[1.0, -1.0], [-1.0, 1.0]], "q": [-1.0, 1.0]}


@dataclass
class Problem:
    """One problem file: its payload, where it lives and what is known of it."""

    name: str
    kind: str
    n: int
    payload: dict
    scale: float | None = None
    verdict: str = "unique"
    path: Path | None = None

    def text(self) -> str:
        return json.dumps({"kind": self.kind, "payload": self.payload}) + "\n"


@dataclass
class Request:
    """One client request: ``solve`` with a solver, or ``enumerate``.

    ``group`` is ``general`` for the paths that ignore contact structure
    (Lemke, enumeration of general LCPs) and ``structured`` otherwise.
    """

    problem: Problem
    op: str
    solver: str | None = None

    @property
    def group(self) -> str:
        if self.op == "solve":
            return "general" if self.solver == "lemke" else "structured"
        return "general" if self.problem.kind == "general" else "structured"

    @property
    def label(self) -> str:
        return f"{self.op}:{self.solver or '-'}:{self.problem.name}"


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """The A'A + nI recipe with A uniform in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return a.T @ a + n * np.eye(n)


def contact(rng, name: str, n: int) -> Problem:
    payload = {
        "K": _spd(rng, n).tolist(),
        "q_tilde": rng.uniform(-5.0, 5.0, n).tolist(),
        "y_star": rng.uniform(0.1, 2.0, n).tolist(),
    }
    return Problem(name, "contact", n, payload)


def cascade(rng, name: str, sizes: list[int]) -> Problem:
    """Blocks in chain order, each coupled to every earlier block."""
    blocks = []
    for i, ni in enumerate(sizes):
        q_tilde = rng.uniform(-5.0, 5.0, ni)
        y_star = rng.uniform(0.1, 2.0, ni)
        couplings = [
            {"j": j, "Ktilde": rng.uniform(-1.0, 1.0, (ni, sizes[j])).tolist()}
            for j in range(i)
        ]
        blocks.append(
            {
                "K": _spd(rng, ni).tolist(),
                "q1": (q_tilde + y_star).tolist(),
                "q2": (-q_tilde + y_star).tolist(),
                "couplings": couplings,
            }
        )
    return Problem(name, "cascade", sum(sizes), {"blocks": blocks})


def beams(rng, name: str, n: int, scales) -> list[Problem]:
    """One simply supported beam with evenly spaced stabilizers, at each scale.

    Four point loads, one in each quarter of the span with alternating
    signs, bend the beam into an S so that stabilizers touch both walls.
    The loads are drawn once and multiplied by ``ei``, so every scale
    describes the same deflections in other units.
    """
    positions = BEAM_LENGTH * (np.arange(4) + rng.uniform(0.1, 0.9, 4)) / 4
    magnitudes = rng.choice([-1.0, 1.0]) * np.array([1.0, -1.0, 1.0, -1.0]) * rng.uniform(3.0, 5.0, 4)
    stabilizers = [
        {"position": BEAM_LENGTH * (i + 1) / (n + 1), "gap": BEAM_GAP} for i in range(n)
    ]
    out = []
    for ei in scales:
        payload = {
            "length": BEAM_LENGTH,
            "ei": ei,
            "stabilizers": stabilizers,
            "loads": [
                {"position": float(x), "magnitude": float(m * ei)}
                for x, m in zip(positions, magnitudes)
            ],
        }
        out.append(Problem(f"{name}-ei{ei:g}", "beam", n, payload, scale=ei))
    return out


def general_unique(rng, name: str, n: int) -> Problem:
    """Positive definite M: exactly one solution."""
    payload = {"M": _spd(rng, n).tolist(), "q": rng.uniform(-5.0, 5.0, n).tolist()}
    return Problem(name, "general", n, payload)


def general_none(rng, name: str, n: int) -> Problem:
    """M entrywise nonpositive and q < 0: w = q + M z < 0 for every z >= 0."""
    m = -(rng.uniform(0.0, 1.0, (n, n)) + n * np.eye(n))
    payload = {"M": m.tolist(), "q": rng.uniform(-5.0, -0.5, n).tolist()}
    return Problem(name, "general", n, payload, verdict="none")


def _contact_batch(rng, tiny: bool) -> list[Request]:
    # Sizes are the same for every seed, evenly spaced over 40-200, so the
    # medians sit inside a smooth spread of sizes; the seed draws the entries.
    sizes = [8] if tiny else [40 + 160 * i // 15 for i in range(16)]
    problems = [contact(rng, f"contact-n{n}", n) for n in sizes]
    cascades = []
    for i, t in enumerate([3] if tiny else [3, 4, 5, 3, 4, 5]):
        blocks = [2] * t if tiny else [int(b) for b in np.linspace(5, 50, t)]
        blocks = blocks[i % t:] + blocks[:i % t]
        cascades.append(cascade(rng, f"cascade-{i}-t{t}", blocks))
    return [Request(p, "solve", s) for p in problems for s in ("lemke", "pgs")] + [
        Request(p, "solve", s) for p in cascades for s in ("lemke", "cascade")
    ]


def _beam_batch(rng, tiny: bool) -> list[Request]:
    problems = []
    for n in (5,) if tiny else BEAM_SIZES:
        problems += beams(rng, f"beam-n{n}", n, BEAM_SCALES)
    return [Request(p, "solve", s) for p in problems for s in ("lemke", "pgs")]


def _certify(rng, tiny: bool) -> list[Request]:
    problems = [contact(rng, f"contact-n{n}", n) for n in ((2,) if tiny else (4, 5, 6, 7))]
    for i, n in enumerate((2,) if tiny else (3, 4, 5, 6)):
        ei = BEAM_SCALES[i % len(BEAM_SCALES)]
        problems += beams(rng, f"beam-n{n}", n, (ei,))
    for sizes in ([1, 1, 1],) if tiny else ([1, 1, 2], [1, 2, 1, 1], [2, 1, 1, 1, 1]):
        problems.append(cascade(rng, f"cascade-t{len(sizes)}-n{sum(sizes)}", sizes))
    for n in (3,) if tiny else (5, 6, 8, 10, 12):
        problems.append(general_unique(rng, f"general-n{n}", n))
    problems.append(Problem("singular-psd", "general", 2, SINGULAR_PSD, verdict="multiple"))
    problems.append(general_none(rng, "general-none-n4", 4))
    return [Request(p, "enumerate") for p in problems]


def _cli_cold(rng, tiny: bool) -> list[Request]:
    gen = general_unique(rng, "general-n4", 4)
    con = contact(rng, "contact-n4", 4)
    beam = beams(rng, "beam-n4", 4, (1.0,))[0]
    cas = cascade(rng, "cascade-t3-n4", [1, 2, 1])
    if tiny:
        return [Request(con, "solve", "pgs"), Request(gen, "enumerate")]
    solves = [(gen, "lemke"), (con, "lemke"), (con, "pgs"), (beam, "lemke"), (beam, "pgs"),
              (cas, "lemke"), (cas, "cascade")]
    return [Request(p, "solve", s) for p, s in solves] + [
        Request(p, "enumerate") for p in (gen, con, beam, cas)
    ]


BUILDERS = {
    "contact_batch": _contact_batch,
    "beam_batch": _beam_batch,
    "certify": _certify,
    "cli_cold": _cli_cold,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """The requests of one pass, in a seeded order."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    requests = BUILDERS[workload](rng, tiny)
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def write(requests: list[Request], directory: Path) -> None:
    """Write each distinct problem once and record its path on the problem."""
    directory.mkdir(parents=True, exist_ok=True)
    for req in requests:
        p = req.problem
        if p.path is None:
            p.path = directory / f"{p.name}.json"
            p.path.write_text(p.text(), encoding="utf-8")
