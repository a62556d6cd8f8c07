"""Decisions that must not depend on how a network is written down.

Relabeling the nodes (``helpers.permute``) or reordering the edge list
describes the same network, so the local, decoupled and walk-counting
decisions stay the same.  Reordering the unknown edges permutes the columns
of the sensitivity matrix, so walk repetition counts keep their values up to
that permutation's sign.  The decoupled form of any valid network is
separable, and square exactly when its input is.
"""

import random
from dataclasses import replace

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from netident import (
    GenerationError,
    NetworkModel,
    decouple,
    decoupled_identifiability,
    is_separable,
    local_identifiability,
    random_network,
    repetition_table,
)
from netident.combinatorial import verdict_from_table
from netident.oracle import _parity

from corpus import SQUARE_COMBOS
from helpers import permute

PROPERTY = settings(
    derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


def _draw(seed: int, nodes: int, ports: tuple[int, int], unknowns: int, separable: bool, acyclic: bool):
    try:
        return random_network(
            nodes=nodes,
            unknowns=unknowns,
            excited=ports[0],
            measured=ports[1],
            known_density=0.35,
            separable=separable,
            acyclic=acyclic,
            seed=seed,
        )
    except GenerationError:
        return None


def _relabeled(net: NetworkModel, shuffle_seed: int) -> NetworkModel:
    perm = list(range(net.n))
    random.Random(shuffle_seed).shuffle(perm)
    return permute(net, perm)


def _reordered(net: NetworkModel, shuffle_seed: int) -> tuple[NetworkModel, list[int]]:
    """The same network with its edge list shuffled, and new position -> old position."""
    order = list(range(len(net.edges)))
    random.Random(shuffle_seed).shuffle(order)
    return NetworkModel(net.n, [net.edges[i] for i in order], net.excited, net.measured), order


nets = st.builds(
    _draw,
    seed=st.integers(0, 10_000),
    nodes=st.integers(3, 8),
    ports=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    unknowns=st.integers(1, 4),
    separable=st.booleans(),
    acyclic=st.booleans(),
)


class TestRankRouteInvariance:
    @PROPERTY
    @given(net=nets, shuffle_seed=st.integers(0, 1000))
    def test_local_and_decoupled_ignore_labels_and_edge_order(self, net, shuffle_seed):
        assume(net is not None)
        reordered, _ = _reordered(net, shuffle_seed)
        for route in (local_identifiability, decoupled_identifiability):
            v = route(net)
            for other in (_relabeled(net, shuffle_seed), reordered):
                w = route(other)
                assert (w.decision, w.rank) == (v.decision, v.rank)


class TestWalkRouteInvariance:
    @PROPERTY
    @given(
        seed=st.integers(0, 10_000),
        combo=st.integers(0, len(SQUARE_COMBOS) - 1),
        extra_nodes=st.integers(0, 3),
        acyclic=st.booleans(),
        shuffle_seed=st.integers(0, 1000),
    )
    def test_tables_and_decisions_ignore_labels_and_edge_order(self, seed, combo, extra_nodes, acyclic, shuffle_seed):
        e, m = SQUARE_COMBOS[combo]
        net = _draw(seed, e + m + extra_nodes, (e, m), e * m, separable=True, acyclic=acyclic)
        assume(net is not None)
        # the default 2n bound on acyclic blocks, a small fixed one where cycles make walks unbounded
        bound = 2 * net.n if acyclic else 4
        table = repetition_table(net, bound)
        verdict = verdict_from_table(net, table)

        def same_decision(other, other_table):
            v = verdict_from_table(other, other_table)
            assert (v.decision, v.exhaustive, v.max_degree) == (verdict.decision, verdict.exhaustive, verdict.max_degree)

        relabeled = _relabeled(net, shuffle_seed)
        relabeled_table = repetition_table(relabeled, bound)
        assert relabeled_table.entries == table.entries
        same_decision(relabeled, relabeled_table)

        reordered, old_of = _reordered(net, shuffle_seed)
        reordered_table = repetition_table(reordered, bound)
        new_of = {old: new for new, old in enumerate(old_of)}
        # unknown edges in the new list order, named by their old position
        column_order = [old for old in old_of if not net.edges[old].known]
        old_column = {old: k for k, old in enumerate(i for i, edge in enumerate(net.edges) if not edge.known)}
        sign = _parity([old_column[old] for old in column_order])
        expected = {
            tuple(sorted((new_of[i], mult) for i, mult in mu)): sign * r for mu, r in table.entries.items()
        }
        assert reordered_table.entries == expected
        same_decision(reordered, reordered_table)


class TestDecoupleShape:
    @PROPERTY
    @given(net=nets, valued=st.booleans(), seed=st.integers(0, 1000))
    def test_decoupled_form_is_valid_separable_and_square_with_its_input(self, net, valued, seed):
        assume(net is not None)
        if valued:
            net = replace(net, edges=tuple(replace(e, value=0.5 + i) for i, e in enumerate(net.edges)))
        dec = decouple(net, seed)
        assert is_separable(dec)
        assert dec.m_unknown == net.m_unknown
        assert dec.is_square == net.is_square
