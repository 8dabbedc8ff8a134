"""JSON problem and report files.

Problem files carry ``kind`` (general | contact | cascade | beam), a
``payload`` whose layout depends on the kind, and optional ``metadata``
(name, seed).  Matrices are nested arrays, vectors flat arrays.  Floats are
written with repr round-tripping, so parse(serialize(p)) reproduces p
bit-exactly.

Solve reports are plain JSON dicts produced by the CLI; ``parse_report``
validates just enough structure to re-verify a solution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .beam import BeamConfig, PointLoad, Stabilizer
from .cascade import CascadeBlock, CascadeProblem
from .contact import ContactLcp
from .dense import as_vector
from .errors import LcpError, SchemaError
from .lcp import LcpProblem

__all__ = [
    "KINDS",
    "ProblemFile",
    "parse_problem",
    "serialize_problem",
    "load_problem",
    "save_problem",
    "parse_report",
]

KINDS = ("general", "contact", "cascade", "beam")


@dataclass(frozen=True, eq=False)
class ProblemFile:
    kind: str
    problem: object
    metadata: dict = field(default_factory=dict)


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"expected an object, got {type(mapping).__name__}", field=where)
    if key not in mapping:
        raise SchemaError("missing required field", field=f"{where}.{key}")
    return mapping[key]


def _reject_unknown(mapping, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"expected an object, got {type(mapping).__name__}", field=where)
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}", field=where)


def _array(mapping: dict, key: str, where: str, required: bool = True) -> list:
    """mapping[key], which must be an array; an optional key that is absent reads as []."""
    value = _require(mapping, key, where) if required else mapping.get(key, [])
    if not isinstance(value, list):
        raise SchemaError("must be an array", field=f"{where}.{key}")
    return value


def _build(ctor, where: str, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except SchemaError:
        raise
    except (LcpError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(str(exc), field=where) from exc


def _payload_to_problem(kind: str, payload, where: str = "payload"):
    if kind == "general":
        _reject_unknown(payload, {"M", "q"}, where)
        return _build(
            LcpProblem, where, _require(payload, "M", where), _require(payload, "q", where)
        )
    if kind == "contact":
        _reject_unknown(payload, {"K", "q_tilde", "y_star"}, where)
        return _build(
            ContactLcp,
            where,
            _require(payload, "K", where),
            _require(payload, "q_tilde", where),
            _require(payload, "y_star", where),
        )
    if kind == "cascade":
        _reject_unknown(payload, {"blocks"}, where)
        blocks = []
        for i, raw in enumerate(_array(payload, "blocks", where)):
            bwhere = f"{where}.blocks[{i}]"
            _reject_unknown(raw, {"K", "q1", "q2", "couplings"}, bwhere)
            couplings = []
            for k, cp in enumerate(_array(raw, "couplings", bwhere, required=False)):
                cwhere = f"{bwhere}.couplings[{k}]"
                _reject_unknown(cp, {"j", "Ktilde"}, cwhere)
                couplings.append(
                    (_require(cp, "j", cwhere), _require(cp, "Ktilde", cwhere))
                )
            blocks.append(
                _build(
                    CascadeBlock,
                    bwhere,
                    _require(raw, "K", bwhere),
                    _require(raw, "q1", bwhere),
                    _require(raw, "q2", bwhere),
                    tuple(couplings),
                )
            )
        return _build(CascadeProblem, where, tuple(blocks))
    if kind == "beam":
        _reject_unknown(payload, {"length", "ei", "stabilizers", "loads"}, where)
        stabilizers = []
        for i, raw in enumerate(_array(payload, "stabilizers", where, required=False)):
            swhere = f"{where}.stabilizers[{i}]"
            _reject_unknown(raw, {"position", "gap"}, swhere)
            stabilizers.append(
                Stabilizer(_require(raw, "position", swhere), _require(raw, "gap", swhere))
            )
        loads = []
        for i, raw in enumerate(_array(payload, "loads", where, required=False)):
            lwhere = f"{where}.loads[{i}]"
            _reject_unknown(raw, {"position", "magnitude"}, lwhere)
            loads.append(
                PointLoad(
                    _require(raw, "position", lwhere), _require(raw, "magnitude", lwhere)
                )
            )
        return _build(
            BeamConfig,
            where,
            _require(payload, "length", where),
            _require(payload, "ei", where),
            tuple(stabilizers),
            tuple(loads),
        )
    raise SchemaError(f"kind must be one of {list(KINDS)}, got {kind!r}", field="kind")


def _problem_to_payload(kind: str, problem) -> dict:
    if kind == "general":
        return {"M": problem.M.tolist(), "q": problem.q.tolist()}
    if kind == "contact":
        return {
            "K": problem.K.tolist(),
            "q_tilde": problem.q_tilde.tolist(),
            "y_star": problem.y_star.tolist(),
        }
    if kind == "cascade":
        return {
            "blocks": [
                {
                    "K": blk.K.tolist(),
                    "q1": blk.q1.tolist(),
                    "q2": blk.q2.tolist(),
                    "couplings": [
                        {"j": j, "Ktilde": ktilde.tolist()} for j, ktilde in blk.couplings
                    ],
                }
                for blk in problem.blocks
            ]
        }
    if kind == "beam":
        return {
            "length": problem.length,
            "ei": problem.ei,
            "stabilizers": [
                {"position": s.position, "gap": s.gap} for s in problem.stabilizers
            ],
            "loads": [
                {"position": p.position, "magnitude": p.magnitude} for p in problem.loads
            ],
        }
    raise SchemaError(f"kind must be one of {list(KINDS)}, got {kind!r}", field="kind")


def parse_problem(text: str) -> ProblemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _reject_unknown(doc, {"kind", "payload", "metadata"}, "document")
    kind = _require(doc, "kind", "document")
    if kind not in KINDS:
        raise SchemaError(f"must be one of {list(KINDS)}, got {kind!r}", field="kind")
    payload = _require(doc, "payload", "document")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object", field="metadata")
    return ProblemFile(kind, _payload_to_problem(kind, payload), dict(metadata))


def serialize_problem(pf: ProblemFile) -> str:
    doc = {"kind": pf.kind, "payload": _problem_to_payload(pf.kind, pf.problem)}
    if pf.metadata:
        doc["metadata"] = pf.metadata
    return json.dumps(doc, indent=2) + "\n"


def load_problem(path) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


def save_problem(pf: ProblemFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(pf))


def parse_report(text: str) -> dict:
    """Validate a solve report (or a bare {"z": [...]} document)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    z = _array(doc, "z", "report")
    try:
        as_vector(z, "z")
    except (LcpError, ValueError, TypeError) as exc:
        raise SchemaError("z must be a flat array of finite numbers", field="report.z") from exc
    return doc
