"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from beamlcp.cli import main
from beamlcp.fileio import ProblemFile, save_problem
from beamlcp.generate import gen_problem


def write_problem(tmp_path, kind, name, *, n=2, t=2, seed=0, problem=None, metadata=None):
    pf = ProblemFile(
        kind=kind,
        problem=problem if problem is not None else gen_problem(kind, n, t, seed),
        metadata=metadata or {},
    )
    path = tmp_path / name
    save_problem(pf, path)
    return path


def write_raw(tmp_path, name, payload_obj):
    path = tmp_path / name
    path.write_text(json.dumps(payload_obj) + "\n")
    return path


@pytest.fixture
def contact_file(tmp_path, contact_1d):
    return write_problem(tmp_path, "contact", "c.json", problem=contact_1d)


@pytest.fixture
def degenerate_file(tmp_path, degenerate_2d):
    return write_problem(tmp_path, "general", "deg.json", problem=degenerate_2d)


@pytest.fixture
def infeasible_file(tmp_path):
    from beamlcp import LcpProblem

    p = LcpProblem(np.zeros((1, 1)), np.array([-1.0]))
    return write_problem(tmp_path, "general", "infeasible.json", problem=p)


def test_solve_writes_report_and_exits_zero(tmp_path, contact_file, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--input", str(contact_file), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solved"] is True
    assert report["solver_tag"] == "lemke"
    assert report["kind"] == "contact"
    assert np.allclose(report["z"], [1.0, 0.0], rtol=0, atol=1e-9)
    assert report["residuals"]["min_z"] >= 0.0
    assert report["iterations"] >= 1
    assert report["wall_time"] >= 0.0
    assert "contact" in report
    capsys.readouterr()
    # Without --output the report goes to stdout instead.
    assert main(["solve", "--input", str(contact_file)]) == 0
    streamed = capsys.readouterr().out
    assert json.loads(streamed)["solved"] is True


def test_solve_pgs_on_contact(tmp_path, contact_file):
    out = tmp_path / "report.json"
    code = main(["solve", "--input", str(contact_file), "--solver", "pgs", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solver_tag"] == "pgs"
    assert np.allclose(report["z"], [1.0, 0.0], rtol=0, atol=1e-9)


def test_solve_pgs_rejected_on_general(tmp_path, degenerate_file):
    code = main(["solve", "--input", str(degenerate_file), "--solver", "pgs"])
    assert code == 1


def test_solve_cascade_solver(tmp_path, chain_2_blocks):
    path = write_problem(tmp_path, "cascade", "chain.json", problem=chain_2_blocks)
    out = tmp_path / "report.json"
    code = main(["solve", "--input", str(path), "--solver", "cascade", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solver_tag"] == "cascade"
    assert np.allclose(report["z"], [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-7)


def test_solve_cascade_solver_rejected_on_contact(contact_file):
    assert main(["solve", "--input", str(contact_file), "--solver", "cascade"]) == 1


def test_solve_infeasible_exits_three(infeasible_file):
    assert main(["solve", "--input", str(infeasible_file)]) == 3


def test_solve_with_certification(tmp_path, contact_file):
    out = tmp_path / "report.json"
    code = main(["solve", "--input", str(contact_file), "--cap", "14", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["uniqueness_verdict"] == "unique"


def test_solve_cap_too_small_for_problem(contact_file):
    assert main(["solve", "--input", str(contact_file), "--cap", "1"]) == 1


def test_solve_missing_input_flag():
    assert main(["solve"]) == 1


def test_solve_unreadable_file(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 1


def test_solve_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["solve", "--input", str(path)]) == 1


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_unknown_flag(contact_file):
    assert main(["solve", "--input", str(contact_file), "--fast"]) == 1


def test_verify_accepts_solver_report(tmp_path, contact_file, capsys):
    out = tmp_path / "report.json"
    assert main(["solve", "--input", str(contact_file), "--output", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", "--input", str(contact_file), "--output", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "solved: True" in text
    assert "max F_l*F_u" in text
    assert "gap-sum residual" in text


def test_verify_rejects_wrong_solution(tmp_path, contact_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"z": [0.0, 0.0]}) + "\n")
    assert main(["verify", "--input", str(contact_file), "--output", str(bad)]) == 2


def test_verify_dimension_mismatch_is_usage_error(tmp_path, contact_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"z": [0.0, 0.0, 0.0]}) + "\n")
    assert main(["verify", "--input", str(contact_file), "--output", str(bad)]) == 1


def test_enumerate_unique(contact_file, capsys):
    code = main(["enumerate", "--input", str(contact_file)])
    text = capsys.readouterr().out
    assert code == 0
    assert "verdict: unique" in text


def test_enumerate_multiple(degenerate_file, capsys):
    code = main(["enumerate", "--input", str(degenerate_file)])
    text = capsys.readouterr().out
    assert code == 4
    assert "verdict: multiple" in text


def test_enumerate_none(infeasible_file, capsys):
    code = main(["enumerate", "--input", str(infeasible_file)])
    text = capsys.readouterr().out
    assert code == 3
    assert "verdict: none" in text


def test_enumerate_dimension_over_cap(tmp_path):
    from beamlcp import LcpProblem

    p = LcpProblem(np.eye(15), np.ones(15))
    path = write_problem(tmp_path, "general", "big.json", problem=p)
    assert main(["enumerate", "--input", str(path)]) == 1
    assert main(["enumerate", "--input", str(path), "--cap", "15"]) == 0


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = main(
            ["gen", "--kind", "beam", "--n", "3", "--seed", "11", "--output", str(out)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    different = tmp_path / "c.json"
    assert main(
        ["gen", "--kind", "beam", "--n", "3", "--seed", "12", "--output", str(different)]
    ) == 0
    assert a.read_bytes() != different.read_bytes()


@pytest.mark.parametrize("kind", ["general", "contact", "cascade", "beam"])
def test_gen_then_solve_round_trip(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    assert main(["gen", "--kind", kind, "--n", "3", "--t", "2", "--seed", "5", "--output", str(path)]) == 0
    out = tmp_path / f"{kind}-report.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["solved"] is True
    assert main(["verify", "--input", str(path), "--output", str(out)]) == 0


def test_gen_rejects_unknown_kind(tmp_path):
    assert main(["gen", "--kind", "mesh", "--output", str(tmp_path / "x.json")]) == 1


def test_no_arguments_shows_usage():
    assert main([]) in (0, 1)


def test_solve_pgs_builds_the_beam_once(tmp_path, monkeypatch):
    import beamlcp.cli
    from beamlcp import BeamConfig, PointLoad, Stabilizer

    cfg = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(3.0, 0.5), Stabilizer(7.0, 0.5)),
        loads=(PointLoad(5.0, -1.0),),
    )
    path = write_problem(tmp_path, "beam", "beam.json", problem=cfg)
    calls = []
    original = beamlcp.cli.to_contact_lcp

    def counting(beam):
        calls.append(beam)
        return original(beam)

    monkeypatch.setattr(beamlcp.cli, "to_contact_lcp", counting)
    out = tmp_path / "report.json"
    assert main(["solve", "--input", str(path), "--solver", "pgs", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["solver_tag"] == "pgs"
    assert len(calls) == 1


def test_solve_cascade_assembles_the_matrix_once(tmp_path, monkeypatch, chain_2_blocks):
    import beamlcp.cascade
    import beamlcp.cli

    path = write_problem(tmp_path, "cascade", "chain.json", problem=chain_2_blocks)
    calls = []
    original = beamlcp.cascade.assemble_full

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(beamlcp.cli, "assemble_full", counting)
    monkeypatch.setattr(beamlcp.cascade, "assemble_full", counting)
    assert main(["solve", "--input", str(path), "--solver", "cascade"]) == 0
    assert len(calls) == 1


UNIT_SCALES = (1.0, 1e3, 1e6, 1e9)

SOLVERS_BY_KIND = {
    "general": ("lemke",),
    "contact": ("lemke", "pgs"),
    "beam": ("lemke", "pgs"),
    "cascade": ("lemke", "cascade"),
}


def scaled_problem(kind, seed, s):
    """A generated problem of dimension at most 8 with q (loads and clearances) times s."""
    from beamlcp import (
        BeamConfig,
        CascadeBlock,
        CascadeProblem,
        ContactLcp,
        LcpProblem,
        PointLoad,
        Stabilizer,
    )

    p = gen_problem(kind, 2 if kind == "cascade" else 4, 2, seed)
    if kind == "general":
        return LcpProblem(p.M, s * p.q)
    if kind == "contact":
        return ContactLcp(p.K, s * p.q_tilde, s * p.y_star)
    if kind == "cascade":
        return CascadeProblem(
            tuple(CascadeBlock(b.K, s * b.q1, s * b.q2, b.couplings) for b in p.blocks)
        )
    return BeamConfig(
        p.length,
        p.ei,
        tuple(Stabilizer(st.position, s * st.gap) for st in p.stabilizers),
        tuple(PointLoad(ld.position, s * ld.magnitude) for ld in p.loads),
    )


@pytest.mark.parametrize("scale", UNIT_SCALES)
@pytest.mark.parametrize("kind", list(SOLVERS_BY_KIND))
def test_commands_agree_at_every_unit_scale(tmp_path, kind, scale):
    # Each problem has exactly one solution (SPD M, or the paper's paired
    # blocks with q1 + q2 > 0), so solve, verify and enumerate must all say
    # so whatever units the loads and clearances are given in.
    for seed in range(5):
        path = write_problem(tmp_path, kind, f"{seed}.json", problem=scaled_problem(kind, seed, scale))
        for solver in SOLVERS_BY_KIND[kind]:
            out = tmp_path / f"{seed}-{solver}.json"
            solve = ["solve", "--input", str(path), "--solver", solver, "--output", str(out)]
            assert main(solve) == 0, (seed, solver)
            assert main(["verify", "--input", str(path), "--output", str(out)]) == 0, (seed, solver)
            assert main([*solve, "--cap", "8"]) == 0, (seed, solver)
            assert json.loads(out.read_text())["uniqueness_verdict"] == "unique"
        assert main(["enumerate", "--input", str(path)]) == 0, seed
