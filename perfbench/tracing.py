"""In-memory spans around the beamlcp layer functions, from outside the package.

``Tracer.installed()`` replaces each layer function with a wrapper, by the
name under which the CLI calls it, and restores the originals on exit.  A
span records name, start, end, parent span and request id; layer counts
(pivots, sweeps, supports, bytes) are attributes of the span that did the
work.  A name a later commit no longer has is listed in ``Tracer.missing``
and its layer is reported as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace


def _beam_args(a):
    cfg = a[0]
    return {"n": len(cfg.stabilizers), "loads": len(cfg.loads)}


def _certify_result(r):
    sing = r.enumeration.singular_supports
    return {"singular": len(sing), "consistent": sum(1 for s in sing if s.consistent)}


#: (module, attribute, span name, attrs from the arguments, attrs from the result)
LAYERS = (
    ("beamlcp.fileio", "load_problem", "fileio.parse",
     lambda a: {"bytes": os.path.getsize(a[0])}, None),
    ("beamlcp.cli", "to_contact_lcp", "beam.build", _beam_args, None),
    ("beamlcp.cli", "assemble", "contact.assemble", None, None),
    ("beamlcp.contact", "spd_factor", "dense.factor", None, None),
    ("beamlcp.cli", "lemke_solve", "lemke.solve",
     lambda a: {"dim": a[0].n}, lambda r: {"pivots": r.iterations}),
    ("beamlcp.cli", "solve_structured", "contact.solve",
     None, lambda r: {"result_sweeps": r.sweeps}),
    ("beamlcp.cli", "solve_cascade", "cascade.solve",
     None, lambda r: {"result_sweeps": sum(s.sweeps for s in r)}),
    ("beamlcp.cli", "assemble_full", "cascade.assemble", None, None),
    ("beamlcp.cascade", "assemble_full", "cascade.assemble", None, None),
    ("beamlcp.cli", "validate", "lcp.validate", None, None),
    ("beamlcp.cli", "certify_unique", "oracle.certify",
     lambda a: {"dim": a[0].n}, _certify_result),
)

#: The sweep kernel is not a span: its sweep count is added to the span
#: that called it (a structured or cascade solve), failed solves included.
KERNEL = ("beamlcp.contact", "get_kernel")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self.request = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": self.request, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, pre, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(pre(args) if pre else {})) as rec:
                result = fn(*args, **kwargs)
                if post:
                    rec.update(post(result))
                return result
        return wrapper

    def _wrap_kernel(self, get_kernel):
        @functools.wraps(get_kernel)
        def wrapper(*args, **kwargs):
            kernel = get_kernel(*args, **kwargs)

            def pgs_run(*a):
                sweeps, residual = kernel.pgs_run(*a)
                if self._stack:
                    rec = self.spans[self._stack[-1]]
                    rec["sweeps"] = rec.get("sweeps", 0) + int(sweeps)
                    rec["backend"] = kernel.__name__.rsplit(".", 1)[-1]
                return sweeps, residual
            return SimpleNamespace(pgs_run=pgs_run, __name__=kernel.__name__)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        targets = [(m, a, self._wrap_kernel) for m, a in (KERNEL,)] + [
            (m, a, functools.partial(self._wrap, name=n, pre=pre, post=post))
            for m, a, n, pre, post in LAYERS
        ]
        for mod_name, attr, make in targets:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, make(orig))
            saved.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def extend(self, doc: dict) -> None:
        """Add what a traced child process recorded, re-indexing its span parents."""
        base = len(self.spans)
        for rec in doc["spans"]:
            rec = dict(rec, request=self.request)
            if rec["parent"] is not None:
                rec["parent"] += base
            self.spans.append(rec)
        self.missing.update(doc["missing"])


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unmeasured_layers(missing: set[str]) -> list[str]:
    """Layers with at least one wrapped name absent from the program."""
    names = {f"{m}.{a}": n for m, a, n, _, _ in LAYERS}
    names[".".join(KERNEL)] = "contact.solve"
    return sorted({_layer_of(names[m]) for m in missing})


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, *, requests: int, passes: int, overhead_s, imports) -> dict:
    """Per-layer numbers from one traced run.

    Times are mean self time per call; counts are per request or per call as
    named, and failure counts are per pass, so every count repeats exactly
    whatever the number of passes.
    """
    own = self_times(spans)
    by: dict[str, list[tuple[dict, float]]] = {}
    for rec, t in zip(spans, own):
        by.setdefault(rec["name"], []).append((rec, t))

    def calls(name):
        return len(by.get(name, ()))

    def total(name):
        return sum(t for _, t in by.get(name, ()))

    def mean_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def sweeps(rec):
        return rec.get("sweeps", rec.get("result_sweeps"))

    reqs = requests * passes
    parsed = sum(r["bytes"] for r, _ in by.get("fileio.parse", ()))
    builds = by.get("beam.build", ())
    solves = [(r, t) for r, t in by.get("contact.solve", ()) if sweeps(r) is not None]
    lemke_ok = [(r, t) for r, t in by.get("lemke.solve", ()) if "pivots" in r]
    lemke_flop = sum(2 * r["dim"] * (2 * r["dim"] + 2) * r["pivots"] for r, _ in lemke_ok)
    certs = [r for r, _ in by.get("oracle.certify", ()) if "singular" in r]
    supports = sum(2 ** r["dim"] for r in certs)
    cascades = [r for r, _ in by.get("cascade.solve", ()) if sweeps(r) is not None]
    return {
        "cli.import_ms": (imports["beamlcp.cli"], "ms"),
        "cli.import_optimize_ms": (imports["scipy.optimize"], "ms"),
        "cli.glue_ms": (mean_ms("cli.request"), "ms"),
        "fileio.parse_ms": (mean_ms("fileio.parse"), "ms"),
        "fileio.parse_mb_per_s": (ratio(parsed / 1e6, total("fileio.parse")), "MB/s"),
        "beam.build_ms": (mean_ms("beam.build"), "ms"),
        "beam.build_calls": (ratio(len(builds), reqs), "count"),
        "beam.influence_evals": (ratio(sum(
            r["n"] * (r["n"] + 1) // 2 + r["n"] * r["loads"] for r, _ in builds), reqs), "count"),
        "dense.factor_ms": (mean_ms("dense.factor"), "ms"),
        "dense.factor_calls": (ratio(calls("dense.factor"), reqs), "count"),
        "contact.solve_ms": (mean_ms("contact.solve"), "ms"),
        "contact.sweeps": (ratio(sum(sweeps(r) for r, _ in solves), len(solves)), "count"),
        "contact.ms_per_sweep": (ratio(1e3 * sum(t for _, t in solves),
                                       sum(sweeps(r) for r, _ in solves)), "ms"),
        "contact.fail": (ratio(sum("error" in r for r, _ in by.get("contact.solve", ())),
                               passes), "count"),
        "contact.assemble_ms": (mean_ms("contact.assemble"), "ms"),
        "lemke.solve_ms": (mean_ms("lemke.solve"), "ms"),
        "lemke.pivots": (ratio(sum(r["pivots"] for r, _ in lemke_ok), len(lemke_ok)), "count"),
        "lemke.fail": (ratio(sum("error" in r for r, _ in by.get("lemke.solve", ())),
                             passes), "count"),
        "lemke.gflop_per_s": (ratio(lemke_flop / 1e9, sum(t for _, t in lemke_ok)), "GFLOP/s"),
        "cascade.solve_ms": (mean_ms("cascade.solve"), "ms"),
        "cascade.sweeps": (ratio(sum(sweeps(r) for r in cascades), len(cascades)), "count"),
        "cascade.assemble_ms": (mean_ms("cascade.assemble"), "ms"),
        "lcp.validate_ms": (mean_ms("lcp.validate"), "ms"),
        "lcp.validate_calls": (ratio(calls("lcp.validate"), reqs), "count"),
        "oracle.certify_ms": (mean_ms("oracle.certify"), "ms"),
        "oracle.supports": (ratio(supports, len(certs)), "count"),
        "oracle.singular_share": (ratio(sum(r["singular"] for r in certs), supports), "share"),
        "oracle.lp_solves": (ratio(sum(2 * r["consistent"] for r in certs), len(certs)), "count"),
        "oracle.us_per_support": (ratio(1e6 * total("oracle.certify"), supports), "us"),
        "trace.overhead_ms": (1e3 * statistics.median(overhead_s) if overhead_s else 0.0, "ms"),
    }
