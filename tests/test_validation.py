"""A malformed network cannot be built, by any route; a network once built is never validated again."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from netident import (
    IDENTIFIABLE,
    Edge,
    NetworkFormatError,
    NetworkModel,
    ValidationError,
    combinatorial_verdict,
    decoupled_identifiability,
    exhaustive_degree_bound,
    generic_det_nonzero,
    generic_rank,
    local_identifiability,
    network_from_dict,
    network_to_dict,
    repetition_table,
)

from corpus import fan_net
from helpers import validate_calls

# A valid 3-node chain; each malformed shape below overrides some of its fields.
VALID = {"n": 3, "edges": (Edge(0, 1, known=True), Edge(1, 2, known=False)), "excited": (0,), "measured": (2,)}

MALFORMED = {
    "negative-index": {"edges": (Edge(0, -1, known=False), Edge(0, 1, known=True))},
    "index-past-n": {"edges": (Edge(0, 1, known=True), Edge(1, 3, known=False))},
    "excited-past-n": {"excited": (5,)},
    "self-loop": {"edges": (Edge(1, 1, known=True), Edge(1, 2, known=False))},
    "duplicate-edge": {"edges": (Edge(1, 2, known=True), Edge(1, 2, known=False))},
    "duplicate-excitation": {"excited": (0, 0)},
    "duplicate-measurement": {"measured": (2, 2)},
    "float-edge-index": {"edges": (Edge(0, 1, known=True), Edge(0.5, 2, known=False))},
    "bool-edge-index": {"edges": (Edge(0, True, known=True), Edge(1, 2, known=False))},
    "float-excited": {"excited": (0.0,)},
    "float-measured": {"measured": (2.0,)},
    "float-count": {"n": 3.7},
    "bool-count": {"n": True, "edges": (), "excited": (0,), "measured": ()},
    "negative-count": {"n": -1, "edges": (), "excited": (), "measured": ()},
}


def _one_based(v):
    """A file's node index for in-memory index ``v``; a bool stays a bool so the file keeps the bad type."""
    return v if isinstance(v, bool) else v + 1


def as_file(fields: dict) -> dict:
    """The JSON dict form of the fields, without building a NetworkModel."""
    return {
        "nodes": fields["n"],
        "edges": [{"from": _one_based(e.src), "to": _one_based(e.dst), "known": e.known} for e in fields["edges"]],
        "excited": [_one_based(v) for v in fields["excited"]],
        "measured": [_one_based(v) for v in fields["measured"]],
    }


ROUTES = {
    "constructor": (lambda shape: NetworkModel(**{**VALID, **shape}), ValidationError),
    "replace": (lambda shape: replace(NetworkModel(**VALID), **shape), ValidationError),
    "network_from_dict": (lambda shape: network_from_dict(as_file({**VALID, **shape})), NetworkFormatError),
}


def test_the_base_network_is_valid():
    for build, _ in ROUTES.values():
        assert build({}) == NetworkModel(**VALID)


@pytest.mark.parametrize("shape", list(MALFORMED.values()), ids=list(MALFORMED))
@pytest.mark.parametrize("route", list(ROUTES), ids=list(ROUTES))
def test_malformed_network_cannot_be_built(route, shape):
    build, error = ROUTES[route]
    with pytest.raises(error):
        build(shape)


def test_numpy_integers_are_node_indices():
    """The count and every node index are stored as plain ints: the rank route's field arithmetic and JSON need them."""
    i = np.int64
    net = NetworkModel(i(3), [Edge(i(0), i(1), known=True), Edge(i(1), i(2), known=False)], [i(0)], [i(2)])
    assert type(net.n) is int and net.n == 3
    assert all(type(v) is int for e in net.edges for v in (e.src, e.dst))
    assert all(type(v) is int for v in net.excited + net.measured)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert local_identifiability(net).decision == IDENTIFIABLE
    assert combinatorial_verdict(net).decision == IDENTIFIABLE
    assert network_from_dict(json.loads(json.dumps(network_to_dict(net)))) == net


def negative_index_net() -> NetworkModel:
    """Node -1 would wrap to the last node of every n-long list; unvalidated, the rank route gave rank 1."""
    return NetworkModel(3, [Edge(0, -1, known=False), Edge(0, 1, known=True)], [0], [2])


def index_past_n_net() -> NetworkModel:
    return NetworkModel(2, [Edge(0, 5, known=False)], [0], [1])


ENTRY_POINTS = {
    "generic_rank": generic_rank,
    "generic_rank-decoupled": lambda net: generic_rank(net, decoupled=True),
    "generic_det_nonzero": generic_det_nonzero,
    "repetition_table": lambda net: repetition_table(net, 4),
    "exhaustive_degree_bound": exhaustive_degree_bound,
    "local_identifiability": local_identifiability,
    "decoupled_identifiability": decoupled_identifiability,
    "combinatorial_verdict": combinatorial_verdict,
}


@pytest.mark.parametrize("make_net", [negative_index_net, index_past_n_net], ids=["negative", "past-n"])
@pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_invalid_node_index_raises_validation_error(call, make_net):
    """No entry point can be handed a malformed network: building it raises first."""
    with pytest.raises(ValidationError):
        call(make_net())


@pytest.mark.parametrize(
    "call",
    [local_identifiability, decoupled_identifiability, combinatorial_verdict],
    ids=["local", "decoupled", "walks"],
)
def test_one_validation_per_verdict(call):
    """Building the network validates it once; the verdict on the built network validates nothing more."""
    built = []
    assert validate_calls(lambda: built.append(fan_net())) == 1
    assert validate_calls(lambda: call(built[0])) == 0
