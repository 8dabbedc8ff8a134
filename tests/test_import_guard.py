"""The CLI never imports SciPy, not even where the oracle meets a solution family, nor click.

Each case starts a fresh interpreter that runs ``python -m beamlcp.cli`` once
per command (through ``runpy``, so the module runs exactly as ``-m`` runs it)
and records, after every command, its exit code and the ``scipy`` and
``click`` modules loaded so far.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beamlcp import LcpProblem, certify_unique
from beamlcp.fileio import ProblemFile, save_problem
from beamlcp.generate import gen_problem

SRC = Path(__file__).resolve().parent.parent / "src"

_WRAPPER = """
import json, runpy, sys

for argv in json.loads(sys.argv[1]):
    sys.argv = ["beamlcp", *argv]
    try:
        runpy.run_module("beamlcp.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    loaded = {top: sorted(m for m in sys.modules if m.split(".")[0] == top)
              for top in ("scipy", "click")}
    print("guard:" + json.dumps({"argv": argv, "code": code, **loaded}))
"""


def run_cli(commands: list[list[str]]) -> list[dict]:
    """Run the commands in order in one fresh interpreter; one record per command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(ln[6:]) for ln in proc.stdout.splitlines() if ln.startswith("guard:")]
    assert [r["argv"] for r in records] == commands, proc.stderr
    return records


def write(tmp_path, kind, problem, name) -> str:
    path = tmp_path / name
    save_problem(ProblemFile(kind, problem, {}), path)
    return str(path)


SOLVERS = {
    "general": ["lemke"],
    "contact": ["lemke", "pgs"],
    "beam": ["lemke", "pgs"],
    "cascade": ["lemke", "cascade"],
}


@pytest.mark.parametrize("kind", list(SOLVERS))
def test_cli_never_imports_scipy(tmp_path, kind):
    # Dimension <= 8 for every kind, so enumerate stays under its default cap.
    problem = write(tmp_path, kind, gen_problem(kind, 3, 2, 7), f"{kind}.json")
    commands = []
    for solver in SOLVERS[kind]:
        report = str(tmp_path / f"{solver}-report.json")
        commands.append(["solve", "--input", problem, "--solver", solver, "--output", report])
        commands.append(["verify", "--input", problem, "--output", report])
    commands.append(["enumerate", "--input", problem])
    if kind == "contact":
        commands.append(["solve", "--input", problem, "--cap", "8"])
    for record in run_cli(commands):
        assert record["code"] == 0, record
        assert record["scipy"] == [], record
        assert record["click"] == [], record


def test_singular_psd_enumeration_loads_no_scipy(tmp_path):
    # A consistent singular support: its family representatives need no LP.
    p = LcpProblem([[1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0])
    path = write(tmp_path, "general", p, "deg.json")
    (record,) = run_cli([["enumerate", "--input", path]])
    assert record["code"] == 4
    assert record["scipy"] == [], record


def test_small_scale_certificate_loads_no_scipy(tmp_path):
    # At q of order 1e-9 a consistent singular support still reaches the family search.
    small = LcpProblem([[1.0, -1.0], [-1.0, 1.0]], [-1e-9, 1e-9])
    tol = 1e-8 * float(abs(small.q).max())
    assert certify_unique(small, tol=tol, cap=8).enumeration.singular_consistent.any()
    path = write(tmp_path, "general", small, "small.json")
    report = str(tmp_path / "report.json")
    (record,) = run_cli([["solve", "--input", path, "--cap", "8", "--output", report]])
    assert record["code"] == 0, record
    assert record["scipy"] == [], record
