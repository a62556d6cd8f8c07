"""Malformed networks are refused with ValidationError at each public entry point, validated once per call."""

import pytest

from netident import (
    Edge,
    NetworkModel,
    ValidationError,
    combinatorial_verdict,
    decoupled_identifiability,
    exhaustive_degree_bound,
    generic_det_nonzero,
    generic_rank,
    local_identifiability,
    repetition_table,
    separable_global_identifiability,
)
from netident import combinatorial, netmodel, numeric

from corpus import fan_net, minimal_net


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
    "separable_global_identifiability": separable_global_identifiability,
    "combinatorial_verdict": combinatorial_verdict,
}


@pytest.mark.parametrize("make_net", [negative_index_net, index_past_n_net], ids=["negative", "past-n"])
@pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_invalid_node_index_raises_validation_error(call, make_net):
    with pytest.raises(ValidationError):
        call(make_net())


@pytest.mark.parametrize(
    "call, net",
    [
        (local_identifiability, fan_net()),
        (decoupled_identifiability, fan_net()),
        (separable_global_identifiability, minimal_net()),
        (combinatorial_verdict, fan_net()),
    ],
    ids=["local", "decoupled", "global", "walks"],
)
def test_one_validation_per_verdict(monkeypatch, call, net):
    """A verdict validates its network once, though it reaches the public rank or table routine."""
    calls = []

    def counting(arg):
        calls.append(arg)
        netmodel.validate(arg)

    for module in (numeric, combinatorial):
        monkeypatch.setattr(module, "validate", counting)
    call(net)
    assert calls == [net]
