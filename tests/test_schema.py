"""The problem-file schema is checked field by field in file order."""

from __future__ import annotations

import json

import numpy as np
import pytest

from beamlcp.errors import SchemaError
from beamlcp.fileio import parse_problem

_FAULTY_COUPLING = {"j": 0.5, "Ktilde": [[1.0]]}


@pytest.mark.parametrize(
    ("kind", "payload", "field"),
    [
        # length comes before the stabilizers, whose record lacks its gap.
        ("beam", {"ei": 1.0, "stabilizers": [{"position": 5.0}]}, "payload.length"),
        ("beam", {"length": 10.0, "ei": 1.0, "stabilizers": [{"position": 5.0}], "loads": [5]},
         "payload.stabilizers[0].gap"),
        # A block's K comes before its couplings, whose j is not an integer.
        ("cascade", {"blocks": [{"q1": [0.0], "q2": [1.0], "couplings": [_FAULTY_COUPLING]}]},
         "payload.blocks[0].K"),
        ("cascade", {"blocks": [{"K": [[1.0]], "q1": [0.0], "q2": [1.0],
                                 "couplings": [{"j": 0.5}]}]},
         "payload.blocks[0].couplings[0].Ktilde"),
        ("contact", {"q_tilde": [0.0]}, "payload.K"),
    ],
)
def test_the_first_fault_in_file_order_is_reported(kind, payload, field):
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"kind": kind, "payload": payload}))
    assert exc_info.value.field == field


_BEAM = {
    "length": 10.0,
    "ei": 1.0,
    "stabilizers": [{"position": 2.0, "gap": 0.1}, {"position": 5.0, "gap": 0.1},
                    {"position": 8.0, "gap": 0.1}],
    "loads": [{"position": 3.0, "magnitude": -1.0}, {"position": 7.0, "magnitude": 2.0}],
}


@pytest.mark.parametrize(("array", "k"), [("stabilizers", 1), ("stabilizers", 2), ("loads", 1)])
@pytest.mark.parametrize(
    ("fault", "field", "message"),
    [
        ("non-object", "{at}", "expected an object, got float"),
        ("unknown key", "{at}", "unknown fields ['color']"),
        ("missing key", "{at}.{second}", "missing required field"),
        ("string first", "payload", "'<' not supported between instances of 'float' and 'str'"),
        ("string second", "payload", None),
    ],
)
def test_a_faulty_record_after_the_first_keeps_its_field_and_message(
    array, k, fault, field, message
):
    first, second = _BEAM[array][0]  # the record's keys in file order
    record = _BEAM[array][k]
    payload = {**_BEAM, array: list(_BEAM[array])}
    payload[array][k] = {
        "non-object": 4.5,
        "unknown key": {**record, "color": "red"},
        "missing key": {first: record[first]},
        "string first": {first: str(record[first]), second: record[second]},
        "string second": {first: record[first], second: str(record[second])},
    }[fault]
    if message is None:  # a gap is compared with 0, a magnitude tested by np.isfinite
        message = "'>' not supported between instances of 'str' and 'float'"
        if array == "loads":
            with pytest.raises(TypeError) as numpy_error:
                np.isfinite(str(record[second]))
            message = str(numpy_error.value)
    field = field.format(at=f"payload.{array}[{k}]", second=second)
    with pytest.raises(SchemaError) as exc_info:
        parse_problem(json.dumps({"kind": "beam", "payload": payload}))
    assert exc_info.value.field == field
    assert str(exc_info.value) == f"{field}: {message}"
