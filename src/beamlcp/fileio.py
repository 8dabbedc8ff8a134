"""JSON problem and report files.

Problem files carry ``kind`` (general | contact | cascade | beam), a
``payload`` whose layout depends on the kind, and optional ``metadata``
(name, seed).  Matrices are nested arrays, vectors flat arrays.  Floats are
written with repr round-tripping, so parse(serialize(p)) reproduces p
bit-exactly.  One table, ``_SCHEMAS``, gives each kind's layout; it drives
both parsing and writing, and parsing checks the fields in file order.

Solve reports are plain JSON dicts produced by the CLI; ``parse_report``
validates just enough structure to re-verify a solution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .beam import BeamConfig, PointLoad, Stabilizer
from .cascade import CascadeBlock, CascadeProblem, _block_index
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


def _coupling(j, Ktilde) -> tuple:
    """A coupling record, checked here so that a bad ``j`` names its ``couplings[k]`` field."""
    return _block_index(j), Ktilde


_BLOCK = (CascadeBlock, ("K", "q1", "q2", ("couplings", (_coupling, ("j", "Ktilde")), False)))
_STABILIZER = (Stabilizer, ("position", "gap"))
_LOAD = (PointLoad, ("position", "magnitude"))

#: Each kind's constructor and its fields in file order.  A field is a name,
#: or (name, schema, required) for an array of records built by that schema.
_SCHEMAS = {
    "general": (LcpProblem, ("M", "q")),
    "contact": (ContactLcp, ("K", "q_tilde", "y_star")),
    "cascade": (CascadeProblem, (("blocks", _BLOCK, True),)),
    "beam": (
        BeamConfig, ("length", "ei", ("stabilizers", _STABILIZER, False), ("loads", _LOAD, False))
    ),
}

KINDS = tuple(_SCHEMAS)


def _name(f) -> str:
    return f if isinstance(f, str) else f[0]


def _parse(schema, raw, where: str):
    """Check raw against schema, field by field in file order, and build its object."""
    ctor, fields = schema
    _reject_unknown(raw, {_name(f) for f in fields}, where)
    args = []
    for f in fields:
        if isinstance(f, str):
            args.append(_require(raw, f, where))
        else:
            name, sub, required = f
            items = enumerate(_array(raw, name, where, required))
            args.append(tuple(_parse(sub, item, f"{where}.{name}[{i}]") for i, item in items))
    return _build(ctor, where, *args)


def _write(schema, obj) -> dict:
    """The payload of obj: tuples (couplings) are read by position, other records by attribute."""
    out = {}
    for i, f in enumerate(schema[1]):
        value = obj[i] if isinstance(obj, tuple) else getattr(obj, _name(f))
        if isinstance(f, str):
            out[f] = value.tolist() if isinstance(value, np.ndarray) else value
        else:
            out[f[0]] = [_write(f[1], item) for item in value]
    return out


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
    return ProblemFile(kind, _parse(_SCHEMAS[kind], payload, "payload"), dict(metadata))


def serialize_problem(pf: ProblemFile) -> str:
    doc = {"kind": pf.kind, "payload": _write(_SCHEMAS[pf.kind], pf.problem)}
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
