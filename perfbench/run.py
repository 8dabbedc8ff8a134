"""The beamlcp benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends requests in a closed loop, one at a time,
through the public CLI: in process (``beamlcp.cli.main``) or, on
``cli_cold``, as one fresh ``python -m beamlcp.cli`` process per command.
Requests run in complete passes over the workload's seeded request list
until ``--seconds`` have elapsed.  Every output is checked independently of
``beamlcp.validate`` (see ``check.py``).

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics of a separate traced run with ``--trace 1``.  The
line before it is the run's metadata and failure records, which are also
written, with the spans of a traced run, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import inputs
from tracing import Tracer, layer_metrics, unmeasured_layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 60.0
#: Tail percentile per workload, over the best times of distinct requests:
#: the highest that leaves at least ten timed executions beyond it (distinct
#: requests beyond it times passes).  contact_batch keeps ten distinct
#: requests beyond p77.  beam_batch runs two passes, so five of its 30 lie
#: beyond p83.  certify (18 requests, 3-5 passes) uses p80, inside a size
#: class.  cli_cold times 18 processes in each of two passes, so five of
#: them lie beyond p72.
TAIL_PCT = {"contact_batch": 77, "beam_batch": 83, "certify": 80, "cli_cold": 72}
#: Minimum passes of an untraced run, per workload.  A beam_batch pass takes
#: about 20 s and a cli_cold pass about 16 s, so without this each of their
#: requests would run only once.
MIN_PASSES = {"beam_batch": 2, "cli_cold": 2}
#: Probe time that defines the reported milliseconds in process (see ``host_probe``).
PROBE_REF_S = 0.001
#: Reference-process time that defines the reported milliseconds on cli_cold
#: (see ``Subprocess.probe``).
CHILD_PROBE_REF_S = 0.2
#: What the reference process runs: an import of a compiled package the CLI
#: also imports, cheap enough to run before every request.
CHILD_PROBE_CODE = "import numpy"
#: Half-width of the time window whose probes scale a request's time.
PROBE_WINDOW_S = 3.0
#: Expected exit code of ``enumerate`` for each known verdict.
VERDICT_EXIT = {"unique": 0, "none": 3, "multiple": 4}


@dataclass
class Outcome:
    """What one request did: its time to outcome and whether that outcome was right.

    ``error`` is set when the request did not run to an exit code (an
    exception or a timeout); ``message`` is the program's last error line.
    """

    request: inputs.Request
    seconds: float
    samples: list[float]
    code: int | None
    error: str = ""
    message: str = ""
    reasons: list[str] = field(default_factory=list)
    wrong: bool = False
    gap_exact: bool | None = None
    rss_kb: int = 0
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.reasons


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def cli_args(req: inputs.Request, report: Path) -> list[str]:
    if req.op == "enumerate":
        return ["enumerate", "--input", str(req.problem.path)]
    return ["solve", "--input", str(req.problem.path), "--output", str(report),
            "--solver", req.solver]


def judge(out: Outcome, stdout: str, report: Path, verify_stdout: str | None = None) -> None:
    """Record why the outcome is a failure, and whether the program gave a wrong answer.

    A wrong answer is an output the program presents as a result (exit 0, a
    verdict, a listed solution) that the independent check rejects.
    """
    req, p = out.request, out.request.problem
    if out.error:
        out.reasons.append(out.error)
        return
    if req.op == "enumerate":
        lines = stdout.splitlines()
        verdicts = [ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("verdict:")]
        if verdicts and verdicts[-1] != p.verdict:
            out.reasons.append(f"verdict {verdicts[-1]}, known {p.verdict}")
            out.wrong = True
        for ln in lines:
            if ln.startswith("solution"):
                errors = check.solution_errors(p, json.loads(ln.split(":", 1)[1]))
                if errors:
                    out.reasons.append("listed solution rejected: " + "; ".join(errors))
                    out.wrong = True
        if out.code != VERDICT_EXIT[p.verdict] and not out.wrong:
            out.reasons.append(f"exit {out.code}, expected {VERDICT_EXIT[p.verdict]}")
        return
    if out.code != 0:
        out.reasons.append(f"exit {out.code}")
        return
    doc = json.loads(report.read_text(encoding="utf-8"))
    errors = check.solution_errors(p, doc["z"], doc["w"])
    if p.kind != "general":
        within_tol, out.gap_exact = check.gap_identity(p, doc["contact"])
        if not within_tol:
            errors.append("gap-sum identity broken")
        elif req.solver == "pgs" and not out.gap_exact:
            errors.append("gap-sum identity not bit-exact")
    if verify_stdout is not None and "solved: True" not in verify_stdout:
        errors.append("verify did not confirm the report")
    if errors:
        out.reasons += errors
        out.wrong = True


class InProcess:
    """Requests as calls of ``beamlcp.cli.main`` in this process."""

    probe_ref_s = PROBE_REF_S

    def __init__(self, work: Path):
        import beamlcp.cli

        self.main = beamlcp.cli.main
        self.report = work / "report.json"

    def __call__(self, req: inputs.Request, tracer: Tracer | None = None) -> Outcome:
        self.report.unlink(missing_ok=True)
        args = cli_args(req, self.report)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, ""
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(args)
                else:
                    with tracer.installed(), tracer.span("cli.request"):
                        code = self.main(args)
            except Exception as exc:  # noqa: BLE001 - a crash is a recorded failure
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        out = Outcome(req, elapsed, [elapsed], code, error, _last_line(stderr.getvalue()))
        judge(out, stdout.getvalue(), self.report)
        return out

    def probe(self) -> float:
        return host_probe()


def run_child(argv: list[str], work: Path, timeout: float):
    """Run one process to its end: (exit code, or None on timeout; seconds; max RSS in KB; stdout; stderr)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        timed_out = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=_env(), cwd=ROOT)

        def kill():
            timed_out.set()
            proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return (code, elapsed, usage.ru_maxrss, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


class Subprocess:
    """Requests as fresh CLI processes: ``solve`` then ``verify`` on its report, or ``enumerate``."""

    probe_ref_s = CHILD_PROBE_REF_S

    def __init__(self, work: Path):
        self.work = work
        self.report = work / "report.json"
        self.spans = work / "spans.json"

    def _run(self, out: Outcome, args: list[str], tracer: Tracer | None):
        if tracer is None:
            argv = [sys.executable, "-m", "beamlcp.cli", *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(self.spans), *args]
        code, elapsed, rss, stdout, stderr = run_child(argv, self.work, CHILD_TIMEOUT_S)
        out.seconds += elapsed
        out.samples.append(elapsed)
        out.rss_kb = max(out.rss_kb, rss)
        out.message = _last_line(stderr)
        if tracer is not None and self.spans.exists():
            tracer.extend(json.loads(self.spans.read_text(encoding="utf-8")))
            self.spans.unlink()
        if code is None:
            out.error = f"{args[0]} timed out after {CHILD_TIMEOUT_S:.0f} s"
        return code, stdout

    def __call__(self, req: inputs.Request, tracer: Tracer | None = None) -> Outcome:
        self.report.unlink(missing_ok=True)
        out = Outcome(req, 0.0, [], None)
        out.code, stdout = self._run(out, cli_args(req, self.report), tracer)
        verify_stdout = None
        if req.op == "solve" and out.code == 0:
            verify = ["verify", "--input", str(req.problem.path), "--output", str(self.report)]
            _, verify_stdout = self._run(out, verify, tracer)
        judge(out, stdout, self.report, verify_stdout)
        return out

    def probe(self) -> float:
        """Seconds for a fresh interpreter to import NumPy (about 0.2 s).

        Starting a process and importing compiled extensions is most of a
        CLI process's time, and the host's slow phases slow it much more
        than they slow an interpreter loop in this process.  Over three
        minutes on a 2-core host, medians of 18 CLI processes spread 0.17
        (IQR over median) unscaled and 0.04 scaled by this probe.
        """
        argv = [sys.executable, "-c", CHILD_PROBE_CODE]
        code, elapsed, *_ = run_child(argv, self.work, CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"reference process failed with exit code {code}")
        return elapsed


def setup(workload: str, seed: int, work: Path, tiny: bool):
    """Everything before the first request: inputs written, the client ready."""
    requests = inputs.build(workload, seed, tiny)
    inputs.write(requests, work / "problems")
    execute = Subprocess(work) if workload == "cli_cold" else InProcess(work)
    return requests, execute


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh workload process until it is ready to send."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    return elapsed


def import_times() -> dict:
    """Cumulative import time (ms) of beamlcp.cli and scipy.optimize, median of fresh interpreters."""
    runs = {"beamlcp.cli": [], "scipy.optimize": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import beamlcp.cli"],
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[2] in runs:
                seen[parts[2]] = int(parts[1]) / 1e3
        for name in runs:
            runs[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in runs.items()}


def host_probe() -> float:
    """Seconds for a fixed piece of interpreter-bound work (about 1 ms).

    The host runs in fast and slow phases, from seconds to more than a
    minute long, which slow the program and this probe alike.  In-process
    request times are reported scaled by ``PROBE_REF_S`` over the median
    probe time around the request: milliseconds on a host where the probe
    takes 1 ms.  The unscaled figures are kept in the metadata.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(7500):
        acc += i * 0.5 - acc * 1e-3
    return time.perf_counter() - start


def measure(requests, execute, seconds: float, tracer: Tracer | None, min_passes: int = 1):
    """Complete passes until ``seconds`` have elapsed and, untraced, ``min_passes`` are done.

    Untraced, the executor's probe (an interpreter loop in process, a
    reference process on cli_cold) runs before every request, outside the
    timed region, and each outcome is scaled by the executor's reference
    probe time over the median probe time within ``PROBE_WINDOW_S`` of it.
    Traced, each request runs once untraced and once traced; the traced run
    is the recorded outcome and the difference is the tracing overhead.
    """
    outcomes, overhead, probes, windows = [], [], [], []
    probing = tracer is None
    passes = 0
    start = time.perf_counter()
    while True:
        for i, req in enumerate(requests):
            if probing:
                probes.append((time.perf_counter(), execute.probe()))
                t0 = time.perf_counter()
                outcomes.append(execute(req))
                windows.append((t0, time.perf_counter()))
                continue
            plain = execute(req)
            tracer.request = f"{passes}:{i}:{req.label}"
            outcomes.append(execute(req, tracer))
            overhead.append(outcomes[-1].seconds - plain.seconds)
        passes += 1
        if time.perf_counter() - start >= seconds and (tracer or passes >= min_passes):
            break
    if probing:
        probes.append((time.perf_counter(), execute.probe()))
        times = [t for t, _ in probes]
        for o, (t0, t1) in zip(outcomes, windows):
            lo = bisect.bisect_left(times, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, t1 + PROBE_WINDOW_S)
            o.scale = execute.probe_ref_s / statistics.median(p for _, p in probes[lo:hi])
    return outcomes, passes, overhead, [p for _, p in probes]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(outcomes: list[Outcome], workload: str, setup_s: float, rss_kb: int,
               scaled: bool = True):
    """End-to-end metrics over the distinct requests of a pass.

    Each pass repeats the same requests, so a request's time is its fastest
    execution in the run (per process on cli_cold), scaled by the probe
    unless ``scaled`` is false.  Medians and the tail are taken over distinct
    requests.  A request that failed keeps the time it took to fail.
    """
    best: dict[tuple, tuple[str, float]] = {}
    ok: dict[str, list[bool]] = {}
    for o in outcomes:
        ok.setdefault(o.request.label, []).append(o.ok)
        for i, s in enumerate(o.samples):
            if scaled:
                s *= o.scale
            key = (o.request.label, i)
            best[key] = (o.request.group, min(s, best.get(key, (None, s))[1]))
    samples = {g: [t for grp, t in best.values() if grp == g] for g in ("general", "structured")}
    every = samples["general"] + samples["structured"]
    pct = TAIL_PCT[workload]
    tail = percentile(every, pct)
    good_per_pass = sum(sum(v) / len(v) for v in ok.values())

    def p50(xs):
        return 1e3 * statistics.median(xs) if xs else 0.0

    metrics = {
        "setup_s": (setup_s, "s"),
        "correct_per_s": (good_per_pass / sum(every), "1/s"),
        "ok_share": (sum(o.ok for o in outcomes) / len(outcomes), "share"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "general_p50_ms": (p50(samples["general"]), "ms"),
        "structured_p50_ms": (p50(samples["structured"]), "ms"),
        "tail_ms": (1e3 * tail, "ms"),
    }
    timing = {"tail_percentile": pct, "samples": len(every),
              "beyond_tail": sum(s > tail for s in every),
              "per_group": {g: len(v) for g, v in samples.items()},
              "best_ms": {f"{label}#{i}": round(1e3 * t, 4) for (label, i), (_, t) in best.items()}}
    return metrics, timing


def failure_records(workload: str, outcomes: list[Outcome]) -> list[dict]:
    """Each failing case once, with how often it failed and its first time to failure."""
    records: dict[str, dict] = {}
    for o in outcomes:
        if o.ok:
            continue
        req, p = o.request, o.request.problem
        rec = records.setdefault(req.label, {
            "workload": workload, "op": req.op, "kind": p.kind, "n": p.n, "scale": p.scale,
            "solver": req.solver, "exit_code": o.code, "error": o.error or o.message,
            "reasons": o.reasons,
            "wrong_output": o.wrong, "seconds_to_failure": round(o.seconds, 6), "count": 0})
        rec["count"] += 1
    return list(records.values())


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _blas_threads() -> int | None:
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(cdll, name, None)
            if fn is not None:
                return int(fn())
    return None


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import scipy

    import beamlcp

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": _blas_threads(),
            "backends": list(getattr(beamlcp, "available_backends", tuple)()),
            "client": "one client, closed loop"}


def sweeps_per_backend(requests) -> dict:
    """Structured-solver sweeps per kernel backend, when more than one backend exists."""
    import beamlcp

    backends = list(getattr(beamlcp, "available_backends", tuple)())
    if len(backends) < 2:
        return {}
    from beamlcp import PgsOptions, fileio, solve_structured, to_contact_lcp

    totals = {}
    for b in backends:
        totals[b] = 0
        for path in sorted({r.problem.path for r in requests if r.problem.kind in ("contact", "beam")}):
            pf = fileio.load_problem(path)
            c = pf.problem if pf.kind == "contact" else to_contact_lcp(pf.problem)
            try:
                totals[b] += solve_structured(c, PgsOptions(backend=b)).sweeps
            except beamlcp.MaxIterationsExceeded:
                totals[b] += PgsOptions().max_sweeps_per_dim * c.n
    return totals


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
        setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One run; returns (result line, metadata with failure records)."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_s = 0.0
        if not trace:
            setup_s = statistics.median(time_setup(workload, seed) for _ in range(setup_runs))
        requests, execute = setup(workload, seed, work, tiny)
        tracer = Tracer() if trace else None
        outcomes, passes, overhead, probes = measure(requests, execute, seconds, tracer,
                                                     MIN_PASSES.get(workload, 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = metadata(workload, seed, seconds, trace)
    meta.update(passes=passes, requests_per_pass=len(requests))
    if trace:
        metrics = layer_metrics(tracer.spans, requests=len(requests), passes=passes,
                                overhead_s=overhead, imports=import_times())
        inexact = sum(o.gap_exact is False for o in outcomes)
        metrics["check.gap_inexact"] = (inexact / passes, "count")
        meta["unmeasured"] = unmeasured_layers(tracer.missing)
        meta["sweeps_per_backend"] = sweeps_per_backend(requests)
    else:
        if workload == "cli_cold":
            rss = max(o.rss_kb for o in outcomes)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, meta["timing"] = end_to_end(outcomes, workload, setup_s, rss)
        raw, _ = end_to_end(outcomes, workload, setup_s, rss, scaled=False)
        meta["unscaled"] = {k: v for k, (v, _) in raw.items()}
        if probes:
            meta["probe_ms"] = {"median": 1e3 * statistics.median(probes),
                                "min": 1e3 * min(probes), "max": 1e3 * max(probes)}
    meta["failures"] = failure_records(workload, outcomes)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not tiny:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-seed{seed}-trace{trace}"
        stem.with_suffix(".json").write_text(json.dumps({"result": result, "meta": meta}, indent=1))
        if trace:
            stem.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamlcp benchmark")
    parser.add_argument("--workload", choices=list(inputs.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny pass of every workload, untraced and traced")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "beamlcp" / "cli.py").is_file():
        print(f"error: no beamlcp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        work = WORK / f"setup-{os.getpid()}"
        try:
            setup(args.workload, args.seed, work, tiny=False)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    if args.smoke:
        for workload in inputs.BUILDERS:
            for trace in (0, 1):
                result, meta = run(workload, args.seed, 0.0, trace, tiny=True, setup_runs=1)
                print(json.dumps({"workload": workload, "trace": trace, **result}))
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    result, meta = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
