"""Command-line front end.

Subcommands: solve, verify, enumerate, gen.  Exit codes are part of
the interface:

    0  solved / unique
    1  usage, I/O, or schema error (including enumeration over the cap)
    2  point is not a valid solution
    3  no solution found (secondary ray / enumeration came up empty)
    4  multiple solutions

``verify`` reads the report that ``solve --output`` wrote; ``solve --cap N``
additionally requests a uniqueness certificate from the enumeration oracle.
"""

from __future__ import annotations

import json
import sys
import time

import click
import numpy as np

from . import fileio
from .beam import to_contact_lcp
from .cascade import as_lcp_solution, assemble_full, solve_cascade
from .contact import assemble, solve_structured, split_signed
from .errors import (
    DimensionTooLarge,
    LcpError,
    MaxIterationsExceeded,
    NumericalBreakdown,
    PivotLimitExceeded,
    RayTermination,
    SchemaError,
)
from .generate import gen_problem
from .lcp import assemble_w, validate
from .lemke import lemke_solve
from .oracle import Verdict, certify_unique

EXIT_SOLVED = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NONE = 3
EXIT_MULTIPLE = 4

_SOLVER_FAILURES = (RayTermination, PivotLimitExceeded, NumericalBreakdown, MaxIterationsExceeded)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """``--help``: click's own callback, but writing to the current ``sys.stdout``."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _StdoutHelp:
    """Give the help option :func:`_show_help` as its callback (see :func:`_print`)."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_StdoutHelp, click.Command):
    pass


class _Group(_StdoutHelp, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def cli():
    """Two-sided contact LCP toolkit."""


def _structure(pf: fileio.ProblemFile):
    """Solver input, assembled LCP and block structure: (problem, lcp, block_sizes, gap_sums).

    problem is the file's problem, with a beam converted (once) to its
    ContactLcp.  block_sizes/gap_sums are None for general problems; gap_sums
    holds the per-index value of gamma_l + gamma_u (i.e. 2 y*) in block order.

    Raises:
        SchemaError: a beam whose contact model cannot be built: no
            stabilizers, non-finite entries, or a K that is not positive definite.
    """
    if pf.kind == "general":
        return pf.problem, pf.problem, None, None
    if pf.kind in ("contact", "beam"):
        try:
            c = pf.problem if pf.kind == "contact" else to_contact_lcp(pf.problem)
        except (LcpError, ValueError) as exc:
            raise SchemaError(str(exc), field="payload") from exc
        return c, assemble(c), [c.n], 2.0 * c.y_star
    if pf.kind == "cascade":
        p = pf.problem
        return (
            p,
            assemble_full(p),
            [blk.n for blk in p.blocks],
            np.concatenate([blk.q1 + blk.q2 for blk in p.blocks]),
        )
    raise SchemaError(f"unknown kind {pf.kind!r}", field="kind")


def _tolerance(tol: float | None, lcp) -> float:
    """--tol if given, else the default of every command: 1e-8 * max|q|."""
    return tol if tol is not None else 1e-8 * float(np.abs(lcp.q).max())


def _check_tol(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    """Reject a --tol that no comparison can use: NaN, infinite, zero or negative."""
    if value is not None and not 0.0 < value < float("inf"):
        raise click.BadParameter("must be a finite number above 0")
    return value


_TOL_OPTION = click.option(
    "--tol", type=float, callback=_check_tol, help="Tolerance [default: 1e-8 * max|q|]."
)


def _halves(v: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lower-wall and upper-wall halves of a block-stacked z or w, each over all blocks."""
    lower, upper = [], []
    offset = 0
    for n in sizes:
        lower.append(v[offset : offset + n])
        upper.append(v[offset + n : offset + 2 * n])
        offset += 2 * n
    return np.concatenate(lower), np.concatenate(upper)


def _contact_section(z: np.ndarray, w: np.ndarray, sizes: list[int]) -> dict:
    """Canonical per-block force split and gap vectors for the report."""
    z1, z2 = _halves(z, sizes)
    f_l, f_u = split_signed(z1 - z2)
    g_l, g_u = _halves(w, sizes)
    return {
        "F_l": f_l.tolist(),
        "F_u": f_u.tolist(),
        "gamma_l": g_l.tolist(),
        "gamma_u": g_u.tolist(),
    }


def _print(lines: list[str]) -> None:
    """Write lines to the current ``sys.stdout`` in one call.

    Every ``click.echo`` here names its stream: without ``file=``, click
    caches the stream it finds in ``sys.stdout`` with a strong reference to
    itself, so a buffer an in-process caller swapped in would never be freed.
    """
    click.echo("\n".join(lines), file=sys.stdout)


def _fail(exc: Exception, code: int) -> int:
    click.echo(f"error: {exc}", file=sys.stderr)
    return code


@cli.command("solve")
@click.option("--input", "input_path", required=True, help="Problem file (JSON).")
@click.option("--output", "output_path", default=None, help="Where to write the report.")
@click.option(
    "--solver",
    type=click.Choice(["lemke", "pgs", "cascade"]),
    default="lemke",
    show_default=True,
)
@_TOL_OPTION
@click.option(
    "--cap", type=int, default=None, help="Request a uniqueness certificate (enumeration cap)."
)
def cmd_solve(input_path, output_path, solver, tol, cap) -> int:
    """Solve a problem file and write a report."""
    try:
        pf = fileio.load_problem(input_path)
        problem, lcp, sizes, _ = _structure(pf)
    except SchemaError as exc:
        return _fail(exc, EXIT_USAGE)

    if solver == "pgs" and pf.kind not in ("contact", "beam"):
        raise click.UsageError("--solver pgs requires a contact or beam problem")
    if solver == "cascade" and pf.kind != "cascade":
        raise click.UsageError("--solver cascade requires a cascade problem")

    try:
        start = time.perf_counter()
        if solver == "lemke":
            sol = lemke_solve(lcp)
        elif solver == "pgs":
            sol = solve_structured(problem).as_lcp_solution()
        else:
            sol = as_lcp_solution(problem, solve_cascade(problem))
        wall = time.perf_counter() - start
    except _SOLVER_FAILURES as exc:
        return _fail(exc, EXIT_NONE)
    except LcpError as exc:
        return _fail(exc, EXIT_USAGE)

    tol = _tolerance(tol, lcp)
    report = validate(lcp, sol.z, tol)
    doc = {
        "solver_tag": sol.solver_tag,
        "kind": pf.kind,
        "solved": report.solved,
        "z": sol.z.tolist(),
        "w": sol.w.tolist(),
        "residuals": {
            "min_z": report.min_z,
            "min_w": report.min_w,
            "comp_gap": report.comp_gap,
        },
        "iterations": sol.iterations,
        "wall_time": wall,
    }
    if sizes is not None:
        doc["contact"] = _contact_section(sol.z, sol.w, sizes)
    if cap is not None:
        try:
            cert = certify_unique(lcp, tol=tol, cap=cap)
        except DimensionTooLarge as exc:
            return _fail(exc, EXIT_USAGE)
        doc["uniqueness_verdict"] = cert.verdict.value

    text = json.dumps(doc) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False, file=sys.stdout)
    return EXIT_SOLVED if report.solved else EXIT_INVALID


@cli.command("verify")
@click.option("--input", "input_path", required=True, help="Problem file (JSON).")
@click.option(
    "--output",
    "solution_path",
    required=True,
    help="Solution/report file to check (as written by solve).",
)
@_TOL_OPTION
def cmd_verify(input_path, solution_path, tol) -> int:
    """Re-validate a stored solution against its problem."""
    try:
        pf = fileio.load_problem(input_path)
        _, lcp, sizes, gap_sums = _structure(pf)
        with open(solution_path, encoding="utf-8") as fh:
            doc = fileio.parse_report(fh.read())
        z = np.asarray(doc["z"], dtype=np.float64)
        if z.shape[0] != lcp.n:
            raise SchemaError(
                f"z has length {z.shape[0]} but the problem has dimension {lcp.n}",
                field="report.z",
            )
    except (SchemaError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)

    report = validate(lcp, z, _tolerance(tol, lcp))
    lines = [
        f"feasible: {report.feasible}",
        f"solved: {report.solved}",
        f"min_z: {report.min_z:.6e}",
        f"min_w: {report.min_w:.6e}",
        f"comp_gap: {report.comp_gap:.6e}",
    ]
    for idx, kind, magnitude in report.per_index_violations:
        lines.append(f"violation[{idx}] {kind}: {magnitude:.6e}")
    if report.degenerate_indices:
        lines.append(f"degenerate indices: {list(report.degenerate_indices)}")

    if sizes is not None:
        z1, z2 = _halves(z, sizes)
        w1, w2 = _halves(assemble_w(lcp, z), sizes)
        force_prod = float((z1 * z2).max(initial=0.0))
        gap_residual = float(np.abs(w1 + w2 - gap_sums).max(initial=0.0))
        lines.append(f"max F_l*F_u: {force_prod:.6e}")
        lines.append(f"gap-sum residual: {gap_residual:.6e}")

    _print(lines)
    return EXIT_SOLVED if report.solved else EXIT_INVALID


@cli.command("enumerate")
@click.option("--input", "input_path", required=True, help="Problem file (JSON).")
@_TOL_OPTION
@click.option("--cap", type=int, default=14, show_default=True)
def cmd_enumerate(input_path, tol, cap) -> int:
    """List the isolated solutions and up to two points per family; classify uniqueness."""
    try:
        pf = fileio.load_problem(input_path)
        _, lcp, _, _ = _structure(pf)
        cert = certify_unique(lcp, tol=_tolerance(tol, lcp), cap=cap)
    except (SchemaError, DimensionTooLarge) as exc:
        return _fail(exc, EXIT_USAGE)

    enum = cert.enumeration
    lines = [
        f"solution (x{count}): {sol.z.tolist()}"
        for sol, count in zip(enum.solutions, enum.multiplicities)
    ]
    masks, consistent = enum.singular_masks, enum.singular_consistent
    lines += [
        f"singular support {[i for i in range(mask.bit_length()) if mask >> i & 1]}: consistent"
        for mask in masks[consistent].tolist()
    ]
    lines.append(f"singular supports: {masks.size} ({int(consistent.sum())} consistent)")
    lines.append(f"verdict: {cert.verdict.value}")
    _print(lines)
    return {
        Verdict.UNIQUE: EXIT_SOLVED,
        Verdict.MULTIPLE: EXIT_MULTIPLE,
        Verdict.NONE: EXIT_NONE,
    }[cert.verdict]


@cli.command("gen")
@click.option("--kind", type=click.Choice(list(fileio.KINDS)), required=True)
@click.option("--n", type=click.IntRange(min=1), default=4, show_default=True)
@click.option(
    "--t",
    type=click.IntRange(min=1),
    default=3,
    show_default=True,
    help="Block count (cascade only).",
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--output", "output_path", default=None, help="Write here instead of stdout.")
def cmd_gen(kind, n, t, seed, output_path) -> int:
    """Generate a deterministic pseudo-random problem file."""
    problem = gen_problem(kind, n, t, seed)
    pf = fileio.ProblemFile(
        kind, problem, {"name": f"{kind}-n{n}-seed{seed}", "seed": seed}
    )
    text = fileio.serialize_problem(pf)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False, file=sys.stdout)
    return EXIT_SOLVED


def main(argv=None) -> int:
    """Entry point returning the exit code (console script wraps it in sys.exit)."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    return rv if isinstance(rv, int) else EXIT_SOLVED


if __name__ == "__main__":
    sys.exit(main())
