"""Tests for the JSON problem and report formats."""

from __future__ import annotations

import json

import numpy as np
import pytest

from beamlcp import SchemaError
from beamlcp.fileio import (
    KINDS,
    ProblemFile,
    load_problem,
    parse_problem,
    parse_report,
    save_problem,
    serialize_problem,
)
from beamlcp.generate import gen_problem


def _arrays_of(problem):
    """Yield every array-valued field of a problem object for comparison."""
    kind = type(problem).__name__
    if kind == "LcpProblem":
        yield problem.M
        yield problem.q
    elif kind == "ContactLcp":
        yield problem.K
        yield problem.q_tilde
        yield problem.y_star
    elif kind == "CascadeProblem":
        for blk in problem.blocks:
            yield blk.K
            yield blk.q1
            yield blk.q2
            for _, ktilde in blk.couplings:
                yield ktilde
    elif kind == "BeamConfig":
        yield np.array([problem.length, problem.ei])
        yield np.array([(s.position, s.gap) for s in problem.stabilizers])
        yield np.array([(p.position, p.magnitude) for p in problem.loads]).reshape(-1, 2)
    else:  # pragma: no cover - defensive
        raise AssertionError(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_is_bit_exact(kind):
    pf = ProblemFile(
        kind=kind,
        problem=gen_problem(kind, 3, 2, seed=7),
        metadata={"name": f"{kind}-roundtrip", "seed": 7},
    )
    text = serialize_problem(pf)
    back = parse_problem(text)
    assert back.kind == kind
    assert back.metadata == pf.metadata
    for a, b in zip(_arrays_of(pf.problem), _arrays_of(back.problem)):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    # A second serialization is byte-identical.
    assert serialize_problem(back) == text


@pytest.mark.parametrize("kind", KINDS)
def test_file_round_trip(tmp_path, kind):
    pf = ProblemFile(kind=kind, problem=gen_problem(kind, 2, 2, seed=3), metadata={})
    path = tmp_path / f"{kind}.json"
    save_problem(pf, path)
    back = load_problem(path)
    assert serialize_problem(back) == serialize_problem(pf)


def test_serialized_text_ends_with_newline():
    pf = ProblemFile(kind="general", problem=gen_problem("general", 2, 1, 0), metadata={})
    assert serialize_problem(pf).endswith("\n")


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError):
        parse_problem("{not json")


def test_parse_rejects_non_object():
    with pytest.raises(SchemaError):
        parse_problem("[1, 2, 3]")


def test_parse_rejects_missing_kind():
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"payload": {}}))
    assert "kind" in str(exc_info.value)


def test_parse_rejects_unknown_kind():
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"kind": "sparse", "payload": {}}))
    assert "kind" in str(exc_info.value)


def test_parse_rejects_unknown_top_level_key():
    text = json.dumps(
        {"kind": "general", "payload": {"M": [[1.0]], "q": [1.0]}, "extra": 1}
    )
    with pytest.raises(SchemaError):
        parse_problem(text)


def test_parse_rejects_missing_payload_field():
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"kind": "general", "payload": {"M": [[1.0]]}}))
    assert "q" in str(exc_info.value)


def test_parse_rejects_unknown_payload_field():
    text = json.dumps(
        {"kind": "general", "payload": {"M": [[1.0]], "q": [1.0], "bias": [0.0]}}
    )
    with pytest.raises(SchemaError):
        parse_problem(text)


def test_parse_rejects_nan_values():
    text = '{"kind": "general", "payload": {"M": [[NaN]], "q": [1.0]}}'
    with pytest.raises(SchemaError):
        parse_problem(text)


def test_parse_rejects_nonsquare_matrix():
    text = json.dumps(
        {"kind": "general", "payload": {"M": [[1.0, 2.0]], "q": [1.0]}}
    )
    with pytest.raises(SchemaError):
        parse_problem(text)


def test_parse_rejects_bad_cascade_coupling():
    payload = {
        "blocks": [
            {"K": [[1.0]], "q1": [0.0], "q2": [1.0], "couplings": []},
            {
                "K": [[1.0]],
                "q1": [0.0],
                "q2": [1.0],
                "couplings": [{"j": 1, "Ktilde": [[1.0]]}],
            },
        ]
    }
    with pytest.raises(SchemaError):
        parse_problem(json.dumps({"kind": "cascade", "payload": payload}))


def test_parse_rejects_contact_invariant_violation():
    payload = {"K": [[1.0]], "q_tilde": [0.0], "y_star": [0.0]}
    with pytest.raises(SchemaError):
        parse_problem(json.dumps({"kind": "contact", "payload": payload}))


def test_parse_rejects_beam_schema_violations():
    payload = {
        "length": 10.0,
        "ei": 1.0,
        "stabilizers": [{"position": 5.0}],
        "loads": [],
    }
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"kind": "beam", "payload": payload}))
    assert "gap" in str(exc_info.value)


def test_parse_report_requires_z():
    with pytest.raises(SchemaError):
        parse_report(json.dumps({"solved": True}))
    with pytest.raises(SchemaError):
        parse_report(json.dumps({"z": "nope"}))
    with pytest.raises(SchemaError):
        parse_report(json.dumps({"z": [1.0, None]}))
    rep = parse_report(json.dumps({"z": [1.0, 0.0], "solved": True}))
    assert np.array_equal(rep["z"], np.array([1.0, 0.0]))


def test_metadata_defaults_to_empty_dict():
    pf = parse_problem(
        json.dumps({"kind": "general", "payload": {"M": [[1.0]], "q": [1.0]}})
    )
    assert pf.metadata == {}


_BEAM = {"length": 10.0, "ei": 1.0, "stabilizers": [{"position": 5.0, "gap": 1.0}], "loads": []}
_BLOCK = {"K": [[1.0]], "q1": [0.0], "q2": [1.0]}
_INF_J = {"j": float("inf"), "Ktilde": [[1.0]]}
_COUPLED = "payload.blocks[1].couplings[0]"


@pytest.mark.parametrize(
    ("kind", "doc", "field", "message"),
    [
        ("general", 5, "payload", "expected an object"),
        ("beam", {**_BEAM, "stabilizers": 5}, "payload.stabilizers", "must be an array"),
        ("beam", {**_BEAM, "stabilizers": [5]}, "payload.stabilizers[0]", "expected an object"),
        ("beam", {**_BEAM, "loads": {"a": 1}}, "payload.loads", "must be an array"),
        ("cascade", {"blocks": [{**_BLOCK, "couplings": 3}]}, "payload.blocks[0].couplings",
         "must be an array"),
        ("cascade", {"blocks": [5]}, "payload.blocks[0]", "expected an object"),
        ("cascade", {"blocks": [_BLOCK, {**_BLOCK, "couplings": [_INF_J]}]}, _COUPLED, "integer"),
        ("report", {"z": ["a", 1, 2, 3]}, "report.z", "finite numbers"),
        ("report", {"z": [1.0, [2.0, 3.0]]}, "report.z", "finite numbers"),
        # A j that is not an integer is rejected at the coupling, not at its block.
        ("cascade", {"blocks": [_BLOCK, {**_BLOCK, "couplings": [{**_INF_J, "j": 1.5}]}]},
         _COUPLED, "got 1.5"),
        ("cascade", {"blocks": [_BLOCK, {**_BLOCK, "couplings": [{**_INF_J, "j": True}]}]},
         _COUPLED, "got True"),
    ],
)
def test_malformed_files_name_the_field(kind, doc, field, message):
    if kind == "report":
        parse, text = parse_report, json.dumps(doc)
    else:
        parse, text = parse_problem, json.dumps({"kind": kind, "payload": doc})
    with pytest.raises(SchemaError) as exc_info:
        parse(text)
    assert exc_info.value.field == field
    assert message in str(exc_info.value)


def _paths(node, path=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@pytest.mark.parametrize("kind", KINDS)
def test_any_malformed_field_is_a_schema_error_with_its_path(kind):
    doc = json.loads(serialize_problem(ProblemFile(kind, gen_problem(kind, 2, 2, 0))))
    for path in list(_paths(doc))[1:]:
        for junk in (5, "a", None, True, [], [5], ["a"], [[1.0, 2.0], [3.0]], {}, {"a": 1}, 1e400):
            bad = json.loads(json.dumps(doc))
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = junk
            try:
                parse_problem(json.dumps(bad))
            except SchemaError as exc:
                assert exc.field, (path, junk, exc)
