"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    inputs.write(inputs.build(workload, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(inputs.BUILDERS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    assert first
    assert _files(workload, 7, tmp_path / "b") == first


@pytest.mark.parametrize("workload", list(inputs.BUILDERS))
def test_other_seed_gives_other_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    second = _files(workload, 8, tmp_path / "b")
    assert first.keys() != second.keys() or any(first[k] != second[k] for k in first)


def test_checker_accepts_the_solution_and_rejects_others():
    # K = 2, q_tilde = -3, y* = 1: d = 1, so z = (1, 0) and w = (0, 2).
    p = inputs.Problem("one", "contact", 1, {"K": [[2.0]], "q_tilde": [-3.0], "y_star": [1.0]})
    assert check.solution_errors(p, [1.0, 0.0], [0.0, 2.0]) == []
    assert check.gap_identity(p, {"gamma_l": [0.0], "gamma_u": [2.0]}) == (True, True)
    assert check.solution_errors(p, [0.0, 0.0])  # w = (-2, 4)
    assert check.solution_errors(p, [1.1, 0.0])  # gap 0.22
    assert check.solution_errors(p, [1.0, 0.0], [0.0, 2.5])  # reported w is off


def test_beam_matrix_agrees_with_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from beamlcp import fileio, to_contact_lcp

    p = next(r.problem for r in inputs.build("beam_batch", 3) if r.problem.n == 17)
    c = to_contact_lcp(fileio.parse_problem(p.text()).problem)
    K, q_tilde, y = check.contact_data(p)
    assert np.allclose(K, c.K, rtol=1e-12, atol=0.0)
    assert np.allclose(q_tilde, c.q_tilde, rtol=1e-10, atol=1e-12 * np.abs(q_tilde).max())
    assert np.array_equal(y, c.y_star)


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, check=True)
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in inputs.BUILDERS for t in (0, 1)}
    assert {w["name"] for w in SPEC["workloads"]} <= set(inputs.BUILDERS)
    for r in results:
        spec = SPEC["per_layer" if r["trace"] else "end_to_end"]
        assert {k: v["unit"] for k, v in r["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
        assert r["correct"] is True
        assert r["attempted"] >= 1
