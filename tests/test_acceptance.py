"""Acceptance gate: nine end-to-end criteria with explicit pass/fail lines.

Each criterion is a single test function.  Besides the usual assertion, every
test records one `[acceptance] criterion N (...): PASS|FAIL` line; the
conftest terminal-summary hook prints the collected lines after the run so
the verdicts are visible regardless of capture settings.
"""

from __future__ import annotations

import json
import time

import numpy as np

from beamlcp import (
    BeamConfig,
    ContactLcp,
    PgsOptions,
    PointLoad,
    Stabilizer,
    Verdict,
    as_lcp_solution,
    assemble,
    assemble_full,
    cascade_stages,
    certify_unique,
    feasible_point,
    flexibility_matrix,
    gaps,
    influence,
    lemke_solve,
    solve_cascade,
    solve_structured,
    split_signed,
    to_contact_lcp,
    validate,
)
from beamlcp.cli import main as cli_main
from beamlcp.generate import gen_beam, gen_cascade, gen_contact

# Solutions harvested by earlier criteria, re-checked wholesale by criterion 3.
# Entries are (contact problem, stacked z from some solver).
_HARVESTED: list[tuple[ContactLcp, np.ndarray]] = []

# One line per criterion, printed by the conftest terminal-summary hook.
VERDICT_LINES: list[str] = []


def _report(tag: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"[acceptance] {tag}: {verdict}"
    VERDICT_LINES.append(line)
    print(line)
    assert not failures, f"{tag}: {len(failures)} failure(s); first: {failures[:3]}"


def _stack(sol) -> np.ndarray:
    return np.concatenate([sol.F_l, sol.F_u])


def test_criterion_1_block_structure_psd():
    tag = "criterion 1 (assembled block matrix is PSD with exact paired null space)"
    failures: list[str] = []
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        c = gen_contact(n, rng)
        m = assemble(c).M
        x = rng.standard_normal(2 * n)
        quad = float(x @ m @ x)
        if quad < -1e-9 * float(x @ x):
            failures.append(f"trial {trial}: negative quadratic form {quad}")
        u = rng.standard_normal(n)
        paired = np.concatenate([u, u])
        quad_paired = float(paired @ m @ paired)
        if abs(quad_paired) > 1e-9 * float(paired @ paired):
            failures.append(f"trial {trial}: paired quadratic form {quad_paired}")
        annihilated = m[:, :n] @ u + m[:, n:] @ u
        if annihilated.any():
            failures.append(f"trial {trial}: paired matvec not exactly zero")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _report(tag, failures)


def test_criterion_2_feasible_start_and_pivot_solver():
    tag = "criterion 2 (closed-form feasible point; pivot solver never hits a ray)"
    failures: list[str] = []
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        c = gen_contact(n, rng)
        fp = feasible_point(c)
        expected_w = np.concatenate([np.zeros(n), 2.0 * c.y_star])
        w_tol = 1e-9 * (1.0 + np.max(np.abs(expected_w)))
        if fp.z.min() < 0.0:
            failures.append(f"trial {trial}: feasible point has negative z")
        if np.max(np.abs(fp.w - expected_w)) > w_tol:
            failures.append(f"trial {trial}: feasible point gaps off by >1e-9")
        p = assemble(c)
        try:
            sol = lemke_solve(p)
        except Exception as exc:
            failures.append(f"trial {trial}: pivot solver raised {type(exc).__name__}")
            continue
        rep = validate(p, sol.z, tol=1e-8 * (1.0 + np.max(np.abs(p.q))))
        if not rep.solved:
            failures.append(f"trial {trial}: pivot solution failed validation")
        _HARVESTED.append((c, sol.z))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _report(tag, failures)


def test_criterion_4_uniqueness_and_degeneracy(degenerate_2d):
    tag = "criterion 4 (oracle certifies uniqueness; degenerate sets stay convex)"
    failures: list[str] = []
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(1, 4))
        c = gen_contact(n, rng)
        p = assemble(c)
        cert = certify_unique(p, tol=1e-9)
        if cert.verdict is not Verdict.UNIQUE:
            failures.append(f"trial {trial}: verdict {cert.verdict}")
            continue
        pivot = lemke_solve(p)
        z_structured = _stack(solve_structured(c))
        if np.max(np.abs(pivot.z - z_structured)) > 1e-7:
            failures.append(f"trial {trial}: solvers disagree beyond 1e-7")
        if np.max(np.abs(pivot.z - cert.z)) > 1e-7:
            failures.append(f"trial {trial}: solver disagrees with oracle beyond 1e-7")
        _HARVESTED.append((c, z_structured))
    cert = certify_unique(degenerate_2d, tol=1e-9)
    if cert.verdict is not Verdict.MULTIPLE:
        failures.append("degenerate fixture not reported as multiple")
    else:
        sols = cert.enumeration.solutions
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                diff = degenerate_2d.M @ sols[i].z - degenerate_2d.M @ sols[j].z
                if np.max(np.abs(diff)) > 1e-8:
                    failures.append("solutions differ outside the null space")
                mid = 0.5 * (sols[i].z + sols[j].z)
                if not validate(degenerate_2d, mid, tol=1e-9).solved:
                    failures.append("midpoint of two solutions does not solve")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _report(tag, failures)


def test_criterion_5_cascade_matches_monolithic(chain_2_blocks):
    tag = "criterion 5 (block elimination matches the monolithic solve)"
    failures: list[str] = []
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    for trial in range(200):
        t = int(rng.integers(1, 4))
        p = gen_cascade(t, 3, rng)
        full = assemble_full(p)
        try:
            pivot = lemke_solve(full)
        except Exception as exc:
            failures.append(f"trial {trial}: pivot solver raised {type(exc).__name__}")
            continue
        stages = cascade_stages(p)
        stacked = as_lcp_solution(p, [st.solution for st in stages])
        if np.max(np.abs(stacked.z - pivot.z)) > 1e-7:
            failures.append(f"trial {trial}: cascade differs beyond 1e-7")
        for blk, stage in zip(p.blocks, stages):
            residual = ((blk.q1 + blk.q2) - stage.q_hat1) - stage.q_hat2
            if residual.any():
                failures.append(f"trial {trial}: effective gap sum not exactly preserved")
            _HARVESTED.append((stage.contact, _stack(stage.solution)))
    ref = as_lcp_solution(chain_2_blocks, solve_cascade(chain_2_blocks))
    if np.max(np.abs(ref.z - np.array([1.0, 0.0, 1.0, 0.0]))) > 1e-9:
        failures.append("reference chain solution off")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _report(tag, failures)


def test_criterion_3_force_complementarity_and_gap_identity(
    contact_1d, contact_1d_resting, contact_2d
):
    tag = "criterion 3 (forces never straddle; gap sums exactly preserved)"
    failures: list[str] = []
    harvest: list[tuple[ContactLcp, np.ndarray]] = list(_HARVESTED)
    for c in (contact_1d, contact_1d_resting, contact_2d):
        harvest.append((c, lemke_solve(assemble(c)).z))
        harvest.append((c, _stack(solve_structured(c))))
    rng = np.random.default_rng(303)
    for _ in range(300):
        c = gen_contact(int(rng.integers(1, 7)), rng)
        harvest.append((c, lemke_solve(assemble(c)).z))
        harvest.append((c, _stack(solve_structured(c))))
    for idx, (c, z) in enumerate(harvest):
        n = c.n
        z_l, z_u = z[:n], z[n:]
        comp = float(np.max(z_l * z_u, initial=0.0))
        if comp > 1e-10 * (1.0 + float(np.max(np.abs(z)))) ** 2:
            failures.append(f"solution {idx}: straddling force product {comp}")
        d = z_l - z_u
        gamma_l, gamma_u = gaps(c, d)
        residual = (2.0 * c.y_star - gamma_l) - gamma_u
        if residual.any():
            failures.append(f"solution {idx}: gap sum identity violated")
        f_l, f_u = split_signed(d)
        slack = np.concatenate([gamma_l, gamma_u])
        p = assemble(c)
        w = p.q + p.M @ np.concatenate([f_l, f_u])
        if np.max(np.abs(slack - w)) > 1e-9 * (1.0 + np.max(np.abs(p.q))):
            failures.append(f"solution {idx}: gaps disagree with assembled slacks")
    if len(harvest) < 100:
        failures.append("harvest unexpectedly small")
    _report(tag, failures)


def test_criterion_6_beam_model(rng):
    tag = "criterion 6 (beam influence numbers and well-posed generated instances)"
    failures: list[str] = []
    midspan = influence(5.0, 5.0, 10.0, 1.0)
    if abs(midspan - 1000.0 / 48.0) > 1e-12 * (1000.0 / 48.0):
        failures.append(f"midspan influence {midspan}")
    cfg = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(3.0, 0.5), Stabilizer(7.0, 0.5)),
    )
    k = flexibility_matrix(cfg)
    if np.max(np.abs(k - np.array([[14.7, 12.3], [12.3, 14.7]]))) > 1e-12:
        failures.append("two-stabilizer flexibility matrix off")
    ref = BeamConfig(
        length=10.0,
        ei=1.0,
        stabilizers=(Stabilizer(5.0, 1.0),),
        loads=(PointLoad(5.0, -0.096),),
    )
    sol = solve_structured(to_contact_lcp(ref))
    if abs(sol.F_l[0] - 0.048) > 1e-12:
        failures.append(f"reference stabilizer force {sol.F_l[0]}")
    for trial in range(100):
        c = to_contact_lcp(gen_beam(int(rng.integers(1, 4)), rng))
        cert = certify_unique(assemble(c), tol=1e-9)
        if cert.verdict is not Verdict.UNIQUE:
            failures.append(f"beam trial {trial}: verdict {cert.verdict}")
    _report(tag, failures)


def test_criterion_7_reference_fixtures_agree(contact_1d, contact_1d_resting, contact_2d):
    tag = "criterion 7 (reference fixtures solved identically by all three routes)"
    failures: list[str] = []
    expected = {
        "pull-through": (contact_1d, np.array([1.0, 0.0])),
        "resting": (contact_1d_resting, np.array([0.0, 0.0])),
        "two-dof": (contact_2d, np.array([7.0 / 6.0, 0.0, 0.0, 1.0 / 3.0])),
    }
    for name, (c, z_ref) in expected.items():
        p = assemble(c)
        for label, z in (
            ("pivot", lemke_solve(p).z),
            ("structured", _stack(solve_structured(c))),
            ("oracle", certify_unique(p, tol=1e-9).z),
        ):
            if z is None or np.max(np.abs(z - z_ref)) > 1e-9:
                failures.append(f"{name}/{label}: solution off by more than 1e-9")
    _report(tag, failures)


def test_criterion_8_cli_round_trip(tmp_path):
    tag = "criterion 8 (CLI: deterministic gen, solve/verify round trip, exit codes)"
    failures: list[str] = []
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        if cli_main(["gen", "--kind", "contact", "--n", "4", "--seed", "9", "--output", str(out)]) != 0:
            failures.append("gen exited nonzero")
    if first.read_bytes() != second.read_bytes():
        failures.append("gen not byte-deterministic")
    report_path = tmp_path / "report.json"
    if cli_main(["solve", "--input", str(first), "--output", str(report_path)]) != 0:
        failures.append("solve exited nonzero")
    if cli_main(["verify", "--input", str(first), "--output", str(report_path)]) != 0:
        failures.append("verify rejected the solver's own report")
    report = json.loads(report_path.read_text())
    if not report.get("solved"):
        failures.append("report not marked solved")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"z": [0.0] * 8}) + "\n")
    if cli_main(["verify", "--input", str(first), "--output", str(bad)]) != 2:
        failures.append("verify did not exit 2 on a wrong solution")
    if cli_main(["solve", "--input", str(tmp_path / "missing.json")]) != 1:
        failures.append("missing input did not exit 1")
    infeasible = tmp_path / "none.json"
    infeasible.write_text(
        json.dumps({"kind": "general", "payload": {"M": [[0.0]], "q": [-1.0]}}) + "\n"
    )
    if cli_main(["enumerate", "--input", str(infeasible)]) != 3:
        failures.append("enumerate on infeasible problem did not exit 3")
    degenerate = tmp_path / "multi.json"
    degenerate.write_text(
        json.dumps(
            {
                "kind": "general",
                "payload": {"M": [[1.0, -1.0], [-1.0, 1.0]], "q": [-1.0, 1.0]},
            }
        )
        + "\n"
    )
    if cli_main(["enumerate", "--input", str(degenerate)]) != 4:
        failures.append("enumerate on degenerate problem did not exit 4")
    if cli_main(["enumerate", "--input", str(first)]) != 0:
        failures.append("enumerate on unique problem did not exit 0")
    _report(tag, failures)


def test_criterion_9_structured_solver_speed():
    tag = "criterion 9 (structured solve at n=50 under 100 ms median)"
    failures: list[str] = []
    rng = np.random.default_rng(909)
    c = gen_contact(50, rng)
    options = PgsOptions()
    solve_structured(c, options)  # warm-up
    times = []
    for _ in range(11):
        start = time.perf_counter()
        solve_structured(c, options)
        times.append(time.perf_counter() - start)
    median_ms = 1e3 * float(np.median(times))
    if median_ms >= 100.0:
        failures.append(f"median {median_ms:.2f} ms")
    VERDICT_LINES.append(f"[acceptance] structured solve n=50 median: {median_ms:.3f} ms")
    _report(tag, failures)
