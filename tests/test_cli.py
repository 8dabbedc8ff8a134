"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamlcp.cli import _structure, _tolerance, main
from beamlcp.errors import SchemaError
from beamlcp.fileio import ProblemFile, parse_problem, save_problem
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
    assert report["solver_tag"] == "pgs"
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


@pytest.mark.parametrize(
    ("kind", "solver"),
    [("general", "lemke"), ("contact", "pgs"), ("beam", "pgs"), ("cascade", "cascade")],
)
def test_solve_defaults_to_the_kinds_own_solver(tmp_path, kind, solver):
    path = write_problem(tmp_path, kind, "p.json")
    out = tmp_path / "report.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["solver_tag"] == solver
    # An explicit --solver runs what it names, also where it is not the default.
    assert main(["solve", "--input", str(path), "--solver", "lemke", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["solver_tag"] == "lemke"


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


@pytest.mark.parametrize("command, cap", [("solve", "-3"), ("solve", "0"), ("enumerate", "0")])
def test_a_cap_below_one_is_a_usage_error_before_any_work(
    tmp_path, contact_file, capsys, monkeypatch, command, cap
):
    import beamlcp.cli

    def no_work(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(beamlcp.cli.fileio, "load_problem", no_work)
    argv = [command, "--input", str(contact_file), "--cap", cap]
    if command == "solve":
        argv += ["--output", str(tmp_path / "report.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--cap: {cap} is below the minimum 1" in captured.err, captured.err
    assert not (tmp_path / "report.json").exists()


def test_solve_missing_input_flag():
    assert main(["solve"]) == 1


def test_solve_unreadable_file(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 1


def test_solve_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["solve", "--input", str(path)]) == 1


def _write_error_commands(tmp_path, contact_file):
    target = str(tmp_path / "missing" / "out.json")
    return (
        ["solve", "--input", str(contact_file), "--output", target],
        ["gen", "--kind", "beam", "--output", target],
    )


def test_a_failed_write_to_output_exits_one_with_one_error_line(tmp_path, contact_file, capsys):
    for argv in _write_error_commands(tmp_path, contact_file):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_a_failed_write_to_output_prints_no_traceback_from_the_module(tmp_path, contact_file):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in _write_error_commands(tmp_path, contact_file):
        proc = subprocess.run(
            [sys.executable, "-m", "beamlcp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""


def _beam(stabilizers, loads=()):
    payload = {"length": 10.0, "ei": 1.0, "stabilizers": stabilizers, "loads": list(loads)}
    return {"kind": "beam", "payload": payload}


_INDEFINITE_BLOCK = {"K": [[1.0, 2.0], [2.0, 1.0]], "q1": [-1.0, 0.5], "q2": [2.0, 1.0]}

#: Files that parse but are outside the class: (document, structured solver, stderr start).
_OUT_OF_CLASS = {
    "cascade-indefinite": (
        {"kind": "cascade", "payload": {"blocks": [_INDEFINITE_BLOCK]}},
        "cascade",
        "error: payload.blocks[0]: matrix is not positive definite",
    ),
    "cascade-clearance-underflow": (
        {"kind": "cascade", "payload": {"blocks": [{"K": [[1.0]], "q1": [5e-324], "q2": [0.0]}]}},
        "cascade",
        "error: payload.blocks[0]: block clearance (q1 + q2) / 2 must be finite and above 0",
    ),
    "cascade-clearance-overflow": (
        {"kind": "cascade", "payload": {"blocks": [{"K": [[1.0]], "q1": [1e308], "q2": [1e308]}]}},
        "cascade",
        "error: payload.blocks[0]: block clearance (q1 + q2) / 2 must be finite and above 0",
    ),
    "contact-clearance-overflow": (
        {"kind": "contact", "payload": {"K": [[1.0]], "q_tilde": [0.0], "y_star": [1e308]}},
        "pgs",
        "error: payload: q_tilde + y_star, y_star - q_tilde and 2 y_star must be finite",
    ),
    "contact-offset-overflow": (
        {"kind": "contact", "payload": {"K": [[1.0]], "q_tilde": [1e308], "y_star": [1e308]}},
        "pgs",
        "error: payload: q_tilde + y_star, y_star - q_tilde and 2 y_star must be finite",
    ),
    "beam-clearance-overflow": (
        _beam([{"position": 5.0, "gap": 1e308}]),
        "pgs",
        "error: payload: q_tilde + y_star, y_star - q_tilde and 2 y_star must be finite",
    ),
    "beam-without-stabilizers": (
        _beam([], [{"position": 5.0, "magnitude": 1.0}]),
        "pgs",
        "error: payload: y_star must be strictly positive",
    ),
    "beam-coincident-stabilizers": (
        _beam([{"position": 3.0, "gap": 1.0}, {"position": 3.0000000000000004, "gap": 1.0}]),
        "pgs",
        "error: payload: matrix is not positive definite",
    ),
}


@pytest.mark.parametrize("name", list(_OUT_OF_CLASS))
def test_out_of_class_files_are_usage_errors(tmp_path, capsys, name):
    doc, solver, message = _OUT_OF_CLASS[name]
    path = write_raw(tmp_path, "p.json", doc)
    for argv in (
        ["solve"],
        ["solve", "--solver", solver],
        ["verify", "--output", str(tmp_path / "report.json")],
        ["enumerate"],
    ):
        assert main([*argv, "--input", str(path)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message), (argv, captured.err)


def test_an_overflowing_beam_prints_only_the_error_line(tmp_path, capsys):
    # length**2 overflows to inf and inf - inf is NaN; the finiteness check reports it.
    doc = _beam([{"position": 3e299, "gap": 1.0}], [{"position": 5e299, "magnitude": 1.0}])
    doc["payload"].update(length=1e300, ei=1e-300)
    path = write_raw(tmp_path, "p.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: payload: flexibility matrix contains non-finite entries\n"


#: Block 0 solves to d = 1e300, which Ktilde = 1e300 shifts beyond the float range.
OVERFLOWING_CASCADE = {"kind": "cascade", "payload": {"blocks": [
    {"K": [[1e-290]], "q1": [-1e10], "q2": [10000000002.0]},
    {"K": [[1.0]], "q1": [1.0], "q2": [1.0], "couplings": [{"j": 0, "Ktilde": [[1e300]]}]},
]}}


def test_an_overflowing_cascade_stage_is_a_solver_failure(tmp_path, capsys):
    path = write_raw(tmp_path, "p.json", OVERFLOWING_CASCADE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: block 1: the coupling shift overflows: q_tilde contains non-finite entries\n"
    )
    assert main(["solve", "--input", str(path), "--solver", "lemke"]) == 3


#: A valid contact file whose answer d = 1e300 / 1e-300 overflows.
OVERFLOWING_CONTACT = {"kind": "contact", "payload": {"K": [[1e-300]], "q_tilde": [-1e300],
                                                      "y_star": [1.0]}}


@pytest.mark.parametrize(
    ("solver", "message"),
    [
        ("pgs", "error: the net forces overflow in 1 solves\n"),
        ("lemke", "error: the solution overflows after 2 pivots\n"),
    ],
    ids=["pgs", "lemke"],
)
def test_an_overflowing_answer_is_a_solver_failure(tmp_path, capsys, solver, message):
    path = write_raw(tmp_path, "p.json", OVERFLOWING_CONTACT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--input", str(path), "--solver", solver]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    ("kind", "solver", "factors"),
    [
        ("beam", "pgs", 1),
        ("beam", "lemke", 1),
        ("contact", "pgs", 1),
        ("contact", "lemke", 1),
        ("cascade", "cascade", 3),
        ("cascade", "lemke", 3),
    ],
)
def test_each_request_factors_each_matrix_once(tmp_path, monkeypatch, kind, solver, factors):
    path = write_problem(tmp_path, kind, "p.json", n=4, t=3, seed=2)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    with redirect_stdout(io.StringIO()):
        assert main(["solve", "--input", str(path), "--solver", solver]) == 0
    assert len(calls) == factors


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


def test_enumerate_finds_a_ray_of_solutions(tmp_path, capsys, exact_solution):
    """Every ``(t, 0, 1/2)`` with ``t >= 2`` solves it; two listed points are checked exactly."""
    from beamlcp import LcpProblem

    m = [[0.0, -1.0, 0.0], [1.0, 5.0, 0.0], [0.0, 2.0, 2.0]]
    q = [0.0, -2.0, -1.0]
    path = write_problem(tmp_path, "general", "ray.json", problem=LcpProblem(m, q))
    assert main(["enumerate", "--input", str(path)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verdict: multiple"
    points = [json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("solution ")]
    assert exact_solution(m, q, points[0]) != exact_solution(m, q, points[1])


def test_enumerate_releases_a_swapped_in_stdout(degenerate_file):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["enumerate", "--input", str(degenerate_file)]) == 4
    assert buf.getvalue().endswith("verdict: multiple\n")
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_enumerate_builds_no_support_records(tmp_path, monkeypatch, capsys):
    from beamlcp import assemble, oracle
    from beamlcp.fileio import load_problem

    built = []

    class Counting(oracle.SingularSupport):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    path = write_problem(tmp_path, "contact", "c6.json", n=6, seed=6)
    monkeypatch.setattr(oracle, "SingularSupport", Counting)
    assert main(["enumerate", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Every paired support is singular and inconsistent: counted, not listed.
    assert [ln for ln in lines if ln.startswith("singular supports: ")] == [
        f"singular supports: {4**6 - 3**6} (0 consistent)"
    ]
    assert not any(ln.startswith("singular support [") for ln in lines)
    assert built == []
    # Reading the property builds the records.
    lcp = assemble(load_problem(path).problem)
    result = oracle.enumerate_solutions(lcp, tol=_tolerance(None, lcp), cap=12)
    assert built == []
    assert len(result.singular_supports) == 4**6 - 3**6
    assert len(built) == 4**6 - 3**6


def listed_problems():
    """Problems whose singular supports are consistent, SVD-singular, or paired but not settled."""
    from beamlcp import LcpProblem, assemble

    paired = np.array([[2.0, 1.0], [1.0, 2.0]])
    rng = np.random.default_rng(502)
    contact = assemble(gen_problem("contact", 3, 2, 0))
    return {
        "lifted-singular-psd": LcpProblem(
            np.block([[paired, -paired], [-paired, paired]]), [-1.0, 0.5, 1.0, -0.5]
        ),
        "singular-psd": LcpProblem([[1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0]),
        "integer-n6": LcpProblem(
            rng.integers(-1, 2, (6, 6)).astype(float), rng.integers(-2, 3, 6).astype(float)
        ),
        "contact-n3-x1e-09": LcpProblem(contact.M, contact.q * 1e-9),
    }


LISTED = listed_problems()


@pytest.mark.parametrize("name", list(LISTED))
def test_enumerate_prints_each_singular_support_record(tmp_path, capsys, name):
    from beamlcp import certify_unique

    problem = LISTED[name]
    path = write_problem(tmp_path, "general", "p.json", problem=problem)
    code = main(["enumerate", "--input", str(path)])
    out = capsys.readouterr().out

    cert = certify_unique(problem, tol=1e-8 * float(np.abs(problem.q).max()))
    enum = cert.enumeration
    assert enum.singular_supports
    lines = [
        f"solution (x{count}): {sol.z.tolist()}"
        for sol, count in zip(enum.solutions, enum.multiplicities)
    ]
    consistent = [sing for sing in enum.singular_supports if sing.consistent]
    lines += [f"singular support {list(sing.support)}: consistent" for sing in consistent]
    lines.append(f"singular supports: {len(enum.singular_supports)} ({len(consistent)} consistent)")
    lines.append(f"verdict: {cert.verdict.value}")
    assert out == "\n".join(lines) + "\n"
    assert code == {"unique": 0, "multiple": 4, "none": 3}[cert.verdict.value]


#: The prefixes every line of ``enumerate`` starts with.  The benchmark judge
#: reads each line starting with ``solution`` as a solution and the last
#: ``verdict:`` line as the verdict, so no other line may start with either.
ENUMERATE_PREFIXES = ("solution (x", "singular support [", "singular supports: ", "verdict: ")


@pytest.mark.parametrize("name", [*LISTED, "contact", "beam", "cascade"])
def test_enumerate_prints_only_the_lines_of_its_contract(tmp_path, capsys, name):
    if name in LISTED:
        path = write_problem(tmp_path, "general", "p.json", problem=LISTED[name])
    else:
        path = write_problem(tmp_path, name, "p.json", n=3, t=2, seed=4)
    main(["enumerate", "--input", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert all(ln.startswith(ENUMERATE_PREFIXES) for ln in lines), lines
    assert sum(ln.startswith("singular supports: ") for ln in lines) == 1
    assert lines[-1].startswith("verdict: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["solve", "verify", "enumerate"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    path = tmp_path / "c.json"
    assert main(["gen", "--kind", "contact", "--n", "3", "--seed", "1", "--output", str(path)]) == 0
    report = tmp_path / "report.json"
    assert main(["solve", "--input", str(path), "--solver", "pgs", "--output", str(report)]) == 0
    argv = [command, "--input", str(path)]
    if command == "verify":
        argv += ["--output", str(report)]
    capsys.readouterr()
    assert main([*argv, "--tol", "1e-8"]) == 0
    assert capsys.readouterr().out
    assert main([*argv, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tol: must be a finite number above 0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["solve", "--help"], ["verify", "--help"], ["enumerate", "--help"], ["gen", "--help"]],
    ids=" ".join,
)
def test_help_releases_a_swapped_in_stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue().startswith("usage: beamlcp")
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


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


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", "--kind", "contact", "--seed", "-1", "--output", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_no_arguments_shows_usage(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.lower().startswith("usage: ")


@pytest.mark.parametrize("flag", ["--inp", "-h"])
def test_no_abbreviation_and_no_short_help(contact_file, capsys, flag):
    # An abbreviated --input or a -h would run or show help; both are usage errors.
    assert main(["enumerate", flag, str(contact_file)]) == 1
    assert capsys.readouterr().out == ""


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


def _solve_then_verify(tmp_path, doc, *solver):
    """Exit codes of ``solve``, with ``--solver`` if given, and of ``verify`` on its report."""
    path = write_raw(tmp_path, "beam.json", doc)
    out = tmp_path / "report.json"
    solved = main(["solve", "--input", str(path), *solver, "--output", str(out)])
    return solved, main(["verify", "--input", str(path), "--output", str(out)])


#: n = 6 with clearances from 2e-8 to 6e-4: Lemke hits a ray (exit 3) on it.
RAY6 = {
    "kind": "beam",
    "payload": {
        "length": 0.41559124726346863,
        "ei": 3.849171584853619e-06,
        "stabilizers": [
            {"position": 0.000936517018, "gap": 2.7228946320625185e-06},
            {"position": 0.000959874407, "gap": 4.364685534845466e-08},
            {"position": 0.017774899709, "gap": 0.0005990511252514615},
            {"position": 0.320460104759, "gap": 2.255350634487277e-08},
            {"position": 0.369556669402, "gap": 0.00031308324346946537},
            {"position": 0.411777249659, "gap": 2.855153333209378e-08},
        ],
        "loads": [
            {"position": 0.1986507747717826, "magnitude": 230.71872951424194},
            {"position": 0.2676778587532227, "magnitude": -0.40712049078660023},
            {"position": 0.40005310102008157, "magnitude": 0.24183234750049348},
            {"position": 0.2265873207149729, "magnitude": 30.031084507383408},
        ],
    },
}

#: Four stabilizers 2.8e-4 apart on a beam of length 126 (cond K about 7e15):
#: the rounding of g = K d + c exceeds the active set's own tolerance.
B111 = {
    "kind": "beam",
    "payload": {
        "length": 126.24668179941753,
        "ei": 0.004964142607482638,
        "stabilizers": [
            {"position": 116.39704706835018, "gap": 5.090765593797087e-05},
            {"position": 116.39732382058679, "gap": 0.02036603868470773},
            {"position": 116.39760057282342, "gap": 0.009715902795525344},
            {"position": 116.39787732506004, "gap": 0.013129138500095998},
        ],
        "loads": [
            {"position": 70.09750864554915, "magnitude": -0.22626816060772892},
            {"position": 117.17783083265321, "magnitude": -0.0869957262858148},
            {"position": 80.31059132077532, "magnitude": -45.349066366149096},
            {"position": 79.94917001212147, "magnitude": 0.02390279749250227},
        ],
    },
}


@pytest.mark.parametrize(
    ("doc", "solver"), [(RAY6, ()), (B111, ("--solver", "pgs"))], ids=["ray6", "b111-pgs"]
)
def test_solve_and_verify_exit_zero_on_ill_conditioned_beams(tmp_path, doc, solver):
    assert _solve_then_verify(tmp_path, doc, *solver) == (0, 0)


def test_explicit_lemke_reports_its_ray_on_ray6(tmp_path, capsys):
    path = write_raw(tmp_path, "ray6.json", RAY6)
    assert main(["solve", "--input", str(path), "--solver", "lemke"]) == 3
    assert capsys.readouterr().err == "error: entering variable z_3 generated a ray\n"


#: M = diag(1e20, 1e-300), q = (-1, -1): the one solution is (1e-20, 1e300).
HUGE_Z = {"kind": "general", "payload": {"M": [[1e20, 0.0], [0.0, 1e-300]], "q": [-1.0, -1.0]}}


@pytest.mark.xfail(
    strict=True,
    reason="lcp.w_rounding's max_row_sum * max|z| overflows to inf, so validate accepts "
    "(0, 1e300) with w_0 = -1; a per-row bound rejects it but makes the verdict none, "
    "since the true solution lies on a support the oracle calls singular (ROADMAP items 1 and 5)",
)
def test_enumerate_lists_no_point_with_a_negative_w(tmp_path, capsys):
    path = write_raw(tmp_path, "huge-z.json", HUGE_Z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["enumerate", "--input", str(path)])
    out = capsys.readouterr().out.splitlines()
    listed = [json.loads(line.split(": ", 1)[1]) for line in out if line.startswith("solution")]
    assert code != 0 or all(z[0] > 0.0 for z in listed), out


@pytest.mark.xfail(
    strict=True,
    reason="the default tolerance 1e-8 max|q| is 100 here, in the units of q rather than z, "
    "so validate accepts z = (0, 0, -1, 0) and enumerate says unique with exit 0 (ROADMAP item 1)",
)
def test_enumerate_lists_no_point_with_a_negative_force(tmp_path, capsys):
    path = write_raw(tmp_path, "overflow.json", OVERFLOWING_CASCADE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        main(["enumerate", "--input", str(path)])
    out = capsys.readouterr().out.splitlines()
    listed = [json.loads(line.split(": ", 1)[1]) for line in out if line.startswith("solution")]
    assert all(min(z) >= -1e-8 * max(map(abs, z)) for z in listed), out


@st.composite
def beam_files(draw):
    """A beam file: n in 3-59, length 10^U(-3,3), ei 10^U(-6,8), clearances 10^U(-6,0) length/100.

    Four loads sit at U(0.01, 0.99) length with magnitude u 10^U(-3,3), u in
    [-3, 3] (the bulk of a standard normal).  The stabilizers are clustered
    (spacing 10^U(-9,-3) length), uniform at random, or evenly spaced.
    """
    n = draw(st.integers(3, 59))
    length = 10.0 ** draw(st.floats(-3.0, 3.0))
    layout = draw(st.sampled_from(["clustered", "uniform", "even"]))
    if layout == "clustered":
        spacing = 10.0 ** draw(st.floats(-9.0, -3.0))
        start = draw(st.floats(0.01, 0.9))
        fractions = [start + i * spacing for i in range(n)]
    elif layout == "uniform":
        unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        fractions = sorted(draw(st.lists(unit, min_size=n, max_size=n, unique=True)))
    else:
        fractions = [(i + 1) / (n + 1) for i in range(n)]
    stabilizers = [
        {"position": f * length, "gap": 10.0 ** draw(st.floats(-6.0, 0.0)) * length / 100.0}
        for f in fractions
    ]
    loads = [
        {
            "position": draw(st.floats(0.01, 0.99)) * length,
            "magnitude": draw(st.floats(-3.0, 3.0)) * 10.0 ** draw(st.floats(-3.0, 3.0)),
        }
        for _ in range(4)
    ]
    ei = 10.0 ** draw(st.floats(-6.0, 8.0))
    return {
        "kind": "beam",
        "payload": {"length": length, "ei": ei, "stabilizers": stabilizers, "loads": loads},
    }


@settings(max_examples=100, deadline=None)
@given(doc=beam_files())
def test_default_solve_exits_zero_on_every_beam_that_parses(tmp_path_factory, doc):
    # The file parses when its beam gives a contact model: a K that is
    # positive definite in floating point, and distinct interior positions.
    try:
        _structure(parse_problem(json.dumps(doc)))
    except SchemaError:
        assume(False)
    assert _solve_then_verify(tmp_path_factory.mktemp("beam"), doc) == (0, 0)
