"""The problem-file schema is checked field by field in file order."""

from __future__ import annotations

import json

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
