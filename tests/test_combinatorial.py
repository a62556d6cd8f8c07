"""Walk enumeration, signed counting and the verdicts they support."""

import importlib.util
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from netident import (
    Edge,
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    DECOUPLED_GENERIC,
    GLOBAL_SEPARABLE,
    NetworkModel,
    GenerationError,
    NoUnknownEdgesError,
    NotSquareError,
    combinatorial_verdict,
    format_monomial,
    local_identifiability,
    necessary_condition_any_topology,
    random_network,
    repetition_table,
    separate,
    symbolic_det,
)
from netident.combinatorial import (
    enumerate_walks,
    exhaustive_degree_bound,
    monomial_degree,
    verdict_from_table,
    walk_nodes,
)
from netident.numeric import generic_det_nonzero
from netident.oracle import _parity, terms_sorted
from netident import combinatorial, identifiability, netmodel

from corpus import (
    SQUARE_COMBOS,
    bipartite_net,
    chain_net,
    cyclic9_net,
    fan_net,
    minimal_net,
    separable_square_corpus,
    unreachable_net,
)
from helpers import calls, monomial_of


def cancel_net() -> NetworkModel:
    """Two relays, two unknowns from the same tail: the only monomial cancels."""
    return NetworkModel(
        6,
        [
            Edge(0, 2, known=True),
            Edge(1, 2, known=True),
            Edge(3, 5, known=True),
            Edge(4, 5, known=True),
            Edge(2, 3, known=False),
            Edge(2, 4, known=False),
        ],
        [0, 1],
        [5],
    )


class TestMonomials:
    def test_canonical_form(self):
        assert monomial_of([2, 0, 2]) == ((0, 1), (2, 2))
        assert monomial_of([]) == ()
        assert monomial_degree(((0, 1), (2, 2))) == 3
        assert monomial_degree(()) == 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=16))
    def test_canonical_form_counts_every_index(self, indices):
        assert monomial_of(indices) == tuple(sorted(Counter(indices).items()))
        assert monomial_of(iter(indices)) == monomial_of(indices)

    def test_formatting(self):
        net = chain_net()
        assert format_monomial(net, ()) == "1"
        assert format_monomial(net, ((0, 1),)) == "g(1->2)"
        assert format_monomial(net, ((0, 2),)) == "g(1->2)^2"


class TestSign:
    """Parity of the row order a collection's (excitation, measurement) pairs hit."""

    def test_identity_assignment_is_positive(self):
        assert _parity([0, 1]) == 1
        assert _parity([0, 1, 2, 3]) == 1

    def test_single_swap_is_negative(self):
        assert _parity([1, 0]) == -1
        assert _parity([0, 1, 3, 2]) == -1


class TestEnumerateWalks:
    def test_chain_single_walk(self):
        net = chain_net()
        blocks = separate(net)
        walks = enumerate_walks(net, blocks, net.edges[1], 3)
        assert len(walks) == 1
        w = walks[0]
        assert w.edges == (0, 1)
        assert (w.start, w.end, w.pivot, w.pivot_pos) == (0, 2, 1, 1)
        assert w.degree == 1
        assert w.known_edge_indices() == (0,)
        assert walk_nodes(net, w) == [0, 1, 2]
        assert walk_nodes(net, w)[w.pivot_pos :] == [1, 2]

    def test_minimal_degree_zero_walk(self):
        net = minimal_net()
        walks = enumerate_walks(net, separate(net), net.edges[0], 2)
        assert [(walk_nodes(net, w), w.pivot_pos) for w in walks] == [([0, 1], 0)]
        assert walks[0].degree == 0

    def test_fan_two_prefixes_per_pivot(self):
        net = fan_net()
        blocks = separate(net)
        walks = enumerate_walks(net, blocks, net.edges[4], 2)
        assert sorted((w.start, w.edges) for w in walks) == [(0, (0, 4)), (1, (2, 4))]

    def test_prefix_bound_respected(self):
        net = chain_net()
        assert enumerate_walks(net, separate(net), net.edges[1], 0) == []
        assert len(enumerate_walks(net, separate(net), net.edges[1], 1)) == 1

    def test_cyclic_block_walks_grow_with_bound(self):
        net = cyclic9_net()
        blocks = separate(net)
        pivot = net.edges[9]
        short = enumerate_walks(net, blocks, pivot, 3)
        long = enumerate_walks(net, blocks, pivot, 5)
        assert len(long) > len(short)
        assert all(w.degree <= 5 for w in long)
        assert sorted(w.edges for w in long if w.degree <= 3) == sorted(w.edges for w in short)

    def test_no_walk_above_the_bound_is_built(self, monkeypatch):
        """The bound caps prefix and suffix together, so nothing is built and then dropped."""
        built = []
        walk = combinatorial.Walk

        def recording_walk(**fields):
            built.append(len(fields["edges"]) - 1)
            return walk(**fields)

        monkeypatch.setattr(combinatorial, "Walk", recording_walk)
        for net in separable_square_corpus(6, acyclic=False, start_seed=700):
            blocks = separate(net)
            for pivot in net.unknown_edges:
                built.clear()
                walks = enumerate_walks(net, blocks, pivot, 4)
                assert len(built) == len(walks)
                assert all(d <= 4 for d in built)


class TestCollections:
    def test_fan_crossing_collection(self):
        """Straight pairing g(1->3) g(2->4) counts +1, crossed g(1->4) g(2->3) counts -1."""
        assert repetition_table(fan_net(), 2).entries == {((0, 1), (3, 1)): 1, ((1, 1), (2, 1)): -1}

    def test_shared_pair_rejected(self):
        """Both walks leaving excitation 1 share its one pair, so g(1->3) g(1->4) is never counted."""
        table = repetition_table(fan_net(), 2)
        assert ((0, 1), (1, 1)) not in table.entries
        assert ((2, 1), (3, 1)) not in table.entries


class TestRepetitionTable:
    def test_minimal(self):
        t = repetition_table(minimal_net(), 2)
        assert t.entries == {(): 1}
        assert t.exhaustive is True
        assert t.infeasible_pivots == ()

    def test_chain(self):
        t = repetition_table(chain_net(), 3)
        assert t.entries == {((0, 1),): 1}
        assert t.exhaustive is True

    def test_fan_two_signed_monomials(self):
        t = repetition_table(fan_net(), 4)
        assert t.entries == {((0, 1), (3, 1)): 1, ((1, 1), (2, 1)): -1}
        assert t.exhaustive is True

    def test_bipartite_identity(self):
        t = repetition_table(bipartite_net(), 2)
        assert t.entries == {(): 1}
        assert t.exhaustive is True

    def test_unreachable_pivot_empty_but_exhaustive(self):
        t = repetition_table(unreachable_net(), 4)
        assert t.entries == {}
        assert t.exhaustive is True
        assert t.infeasible_pivots == (0,)

    @pytest.mark.parametrize("cyclic", [True, False])
    def test_dead_row_lists_no_walk(self, monkeypatch, cyclic):
        """No walk serves row (node 2, node 4) of one net, nor unknown edge 4->5 of the other.

        So no collection exists: no walk is listed, and the empty table is
        exhaustive at every bound, cyclic block or not.
        """
        cycle = [Edge(2, 0, known=True)] * cyclic
        dead_row = NetworkModel(
            4, [Edge(0, 2, known=True), *cycle, Edge(2, 3, known=False), Edge(0, 3, known=False)], [0, 1], [3]
        )
        zero_column = NetworkModel(
            5,
            [Edge(0, 2, known=True), Edge(1, 2, known=True), *cycle, Edge(2, 4, known=False), Edge(3, 4, known=False)],
            [0, 1],
            [4],
        )

        def refuse(*args):
            raise AssertionError("enumerate_walks called on a net with no collection")

        monkeypatch.setattr(combinatorial, "enumerate_walks", refuse)
        cases = (
            (dead_row, (), ((1, 3),), {"no_walk_rows": [[2, 4]]}),
            (zero_column, (len(zero_column.edges) - 1,), (), {"no_walk_pivots": ["4->5"]}),
        )
        for net, pivots, rows, witness in cases:
            assert exhaustive_degree_bound(net) == 0
            for d in (0, 3, 8, None):
                t = repetition_table(net, d or 0)
                # the table the full enumeration builds
                assert (t.entries, t.first, t.max_degree, t.exhaustive) == ({}, {}, d or 0, True)
                assert (t.infeasible_pivots, t.infeasible_rows) == (pivots, rows)
                v = combinatorial_verdict(net, d)
                assert (v.decision, v.max_degree, v.witness) == (NOT_IDENTIFIABLE, d or 0, witness)

    def test_cancellation_kept_as_zero_entry(self):
        t = repetition_table(cancel_net(), 12)
        assert t.entries == {((0, 1), (1, 1), (2, 1), (3, 1)): 0}
        assert t.exhaustive is True

    def test_raising_the_bound_never_changes_counts(self):
        for net in separable_square_corpus(10, acyclic=False, start_seed=700):
            lo = repetition_table(net, 4)
            hi = repetition_table(net, 6)
            for mu, r in lo.entries.items():
                assert hi.entries[mu] == r
            assert set(lo.entries) <= set(hi.entries)

    def test_entries_respect_the_degree_bound(self):
        for net in separable_square_corpus(8, acyclic=False, start_seed=750):
            t = repetition_table(net, 5)
            assert all(monomial_degree(mu) <= 5 for mu in t.entries)

    def test_unknown_edges_at_the_size_guard_from_a_deep_stack(self):
        """The count nests no call per unknown edge, so a caller's deep stack leaves room for all 500."""
        excited, measured = list(range(25)), list(range(25, 45))
        net = NetworkModel(45, [Edge(b, c, known=False) for b in excited for c in measured], excited, measured)
        assert net.m_unknown == combinatorial.MAX_WALK_UNKNOWNS

        def nested(depth):
            return repetition_table(net, 2 * net.n) if depth == 0 else nested(depth - 1)

        t = nested(600)
        # Each edge b->c is the only walk through itself, in row order: the identity pairing.
        assert t.entries == {(): 1}
        assert verdict_from_table(net, t).decision == IDENTIFIABLE

    def test_rejects_non_square(self):
        net = NetworkModel(3, [Edge(0, 2, known=False), Edge(1, 2, known=False)], [0], [2])
        with pytest.raises(NotSquareError):
            repetition_table(net, 3)

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            repetition_table(minimal_net(), -1)


def _square_separable(draw_seed: int, combo: int, extra_nodes: int, density: float):
    e, m = SQUARE_COMBOS[combo]
    try:
        return random_network(
            nodes=e + m + extra_nodes,
            unknowns=e * m,
            excited=e,
            measured=m,
            known_density=density,
            separable=True,
            seed=draw_seed,
        )
    except GenerationError:
        return None


def _rows(net: NetworkModel, walks) -> list[int]:
    return [net.excited.index(w.start) * net.n_measured + net.measured.index(w.end) for w in walks]


def _brute_force_entries(net: NetworkModel, walk_lists, max_degree: int) -> dict:
    """Every collection within the bound, one walk per unknown edge, signed by the permutation parity of its rows."""
    signed: dict = {}
    for c in itertools.product(*walk_lists):
        rows = _rows(net, c)
        if sorted(rows) == list(range(len(walk_lists))) and sum(w.degree for w in c) <= max_degree:
            mu = monomial_of(i for w in c for i in w.known_edge_indices())
            signed[mu] = signed.get(mu, 0) + _parity(rows)
    return signed


class TestTableProperties:
    @settings(derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        draw_seed=st.integers(0, 10_000),
        combo=st.integers(0, 5),
        extra_nodes=st.integers(0, 3),
        density=st.sampled_from([0.3, 0.45, 0.6]),
        d=st.integers(0, 4),
    )
    def test_bound_restricts_and_witnesses_rebuild_the_monomial(self, draw_seed, combo, extra_nodes, density, d):
        net = _square_separable(draw_seed, combo, extra_nodes, density)
        assume(net is not None)
        lo = repetition_table(net, d)
        hi = repetition_table(net, d + 2)
        assert lo.entries == {mu: r for mu, r in hi.entries.items() if monomial_degree(mu) <= d}

        pivots = [i for i, e in enumerate(net.edges) if not e.known]
        blocks = separate(net)
        walk_lists = [enumerate_walks(net, blocks, net.edges[i], d + 2) for i in pivots]

        def is_collection(walks, mu, sign):
            rows = _rows(net, walks)
            return (
                sorted(rows) == list(range(len(pivots)))
                and _parity(rows) == sign
                and monomial_of(i for w in walks for i in w.known_edge_indices()) == mu
            )

        for mu, r in hi.entries.items():
            if r != 0:
                assert (mu, 1 if r > 0 else -1) in hi.first
        brute = math.prod(map(len, walk_lists)) <= 5000
        if brute:
            assert hi.entries == _brute_force_entries(net, walk_lists, d + 2)
        for (mu, sign), walks in hi.first.items():
            assert mu in hi.entries
            assert [w.pivot for w in walks] == pivots
            assert is_collection(walks, mu, sign)
            if brute:
                matching = [c for c in itertools.product(*walk_lists) if is_collection(c, mu, sign)]
                assert min(matching, key=lambda c: [w.edges for w in c]) == walks


def repeat_net(m: int) -> NetworkModel:
    """One excitation, a known 2-cycle 1->2->1 and m unknown edges out of node 2, one per measured node.

    Every walk runs 1->2 (edge 0) once more than 2->1 (edge 1), so a
    collection of degree m + 2j has the monomial g(1->2)^(m+j) g(2->1)^j, and
    C(j+m-1, m-1) collections share it, all with the identity pairing.
    """
    return NetworkModel(
        m + 2,
        [Edge(0, 1, known=True), Edge(1, 0, known=True)] + [Edge(1, 2 + j, known=False) for j in range(m)],
        [0],
        list(range(2, m + 2)),
    )


class TestPackedFieldWidth:
    """The layered count packs each known edge's multiplicity into max(max_degree, 1).bit_length() bits.

    At bound m the one monomial is g(1->2)^m, which fills its field exactly
    for m = 1 (one bit) and m = 3 (two bits); the other bounds sit on either
    side of a change of width.
    """

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 4, 7, 8, 15, 16])
    def test_table_equals_oracle_and_brute_force(self, m, max_degree):
        net = repeat_net(m)
        table = repetition_table(net, max_degree)
        expected = {
            ((0, m + j), (1, j)) if j else ((0, m),): math.comb(j + m - 1, m - 1)
            for j in range(max_degree + 1)
            if m + 2 * j <= max_degree
        }
        assert table.entries == expected
        assert table.entries == dict(terms_sorted(symbolic_det(net, max_degree)))
        blocks = separate(net)
        walk_lists = [enumerate_walks(net, blocks, e, max_degree) for e in net.unknown_edges]
        assert table.entries == _brute_force_entries(net, walk_lists, max_degree)


def layered_net() -> NetworkModel:
    """A 2x2 net with complete known layers 1,2 -> 3,4 -> 5,6 and 7,8 -> 9,10 -> 11,12, unknown 5,6 -> 7,8.

    Shaped like the benchmark's acyclic nets: at its exhaustive bound of 16
    the table has 361 entries, 81 of them surviving.
    """
    layers = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]
    known = [Edge(u, v, known=True) for a, b in zip(layers, layers[1:]) if a != layers[2] for u in a for v in b]
    unknown = [Edge(u, v, known=False) for u in layers[2] for v in layers[3]]
    return NetworkModel(12, known + unknown, layers[0], layers[-1])


def _least_by_decoded_entries(table):
    """The verdict's selection rule over the decoded table: least nonzero entry by (degree, monomial)."""
    mu = min((mu for mu, r in table.entries.items() if r != 0), key=lambda mu: (monomial_degree(mu), mu), default=None)
    if mu is None:
        return None
    r = table.entries[mu]
    return mu, r, table.first[mu, 1 if r > 0 else -1]


class TestLazyTable:
    """The table stays packed until read; the verdict decodes only the surviving monomials."""

    @staticmethod
    def _cases():
        for net in separable_square_corpus(20, acyclic=True):
            yield net, exhaustive_degree_bound(net)
        for net in separable_square_corpus(20, acyclic=False):
            yield net, 2 * net.n
            yield net, 4
        yield cancel_net(), 12
        yield cyclic9_net(), 4
        yield cyclic9_net(), 5
        net = layered_net()
        yield net, exhaustive_degree_bound(net)

    def test_least_survivor_matches_the_rule_over_decoded_entries(self, monkeypatch):
        """Only the least survivor is decoded, though all 81 survivors of layered_net have degree 16."""
        decode = combinatorial.RepetitionTable._decode
        decoded = []
        survivors = cancelled = 0
        for net, bound in self._cases():
            table = repetition_table(net, bound)
            decoded.clear()
            monkeypatch.setattr(combinatorial.RepetitionTable, "_decode", lambda t, p: decoded.append(p) or decode(t, p))
            least = table.least_survivor()
            monkeypatch.undo()
            assert len(decoded) == (least is not None)
            verdict = verdict_from_table(net, table)
            assert "entries" not in vars(table) and "first" not in vars(table)
            assert least == _least_by_decoded_entries(table), f"{net} at {bound}"
            assert table.degrees == {p: monomial_degree(mu) for p, mu in zip(table.counts, table.entries)}
            if least is None:
                cancelled += bool(table.entries)
                assert verdict.decision != IDENTIFIABLE
                continue
            survivors += 1
            mu, r, coll = least
            assert verdict.witness == {
                "monomial": format_monomial(net, mu),
                "repetition": r,
                "walks": [
                    {"nodes": [v + 1 for v in walk_nodes(net, w)], "pivot": str(net.edges[w.pivot])} for w in coll
                ],
            }
        # both branches are reached: survivors, and tables whose every entry cancels
        assert survivors >= 10 and cancelled >= 3

    def test_walk_route_leaves_the_table_undecoded(self):
        net = layered_net()
        bound = exhaustive_degree_bound(net)
        _, table, verdict = combinatorial._walk_route(net, bound)
        assert verdict.decision == IDENTIFIABLE
        assert "entries" not in vars(table) and "first" not in vars(table)
        fresh = repetition_table(net, bound)
        assert list(table.entries.items()) == list(fresh.entries.items())
        assert list(table.first.items()) == list(fresh.first.items())
        assert len(table.entries) == 361
        assert table.entries is table.entries and table.first is table.first

    def test_keys_listed_in_first_collection_order(self):
        nets = [layered_net(), cyclic9_net(), cancel_net(), fan_net()]
        nets += list(separable_square_corpus(10, acyclic=True, start_seed=1200))
        nets += list(separable_square_corpus(10, acyclic=False, start_seed=1300))
        for net in nets:
            table = repetition_table(net, 6)
            # decoding keeps the order of the packed dicts
            assert list(table.first) == [(table._decode(p), sign) for p, sign in table.collections]
            assert list(table.entries) == [table._decode(p) for p in table.counts]
            # the first collections ascend by edge sequence, and entries follow the first key of each monomial
            order = [[w.edges for w in coll] for coll in table.first.values()]
            assert order == sorted(order) and len(set(map(repr, order))) == len(order)
            assert list(table.entries) == list(dict.fromkeys(mu for mu, _ in table.first))


class TestExhaustiveBound:
    def test_handmade_values(self):
        assert exhaustive_degree_bound(minimal_net()) == 0
        assert exhaustive_degree_bound(chain_net()) == 1
        assert exhaustive_degree_bound(fan_net()) == 2
        assert exhaustive_degree_bound(cancel_net()) == 4
        assert exhaustive_degree_bound(unreachable_net()) == 0
        # cyclic: D = m(|R_B| + |R_C| - 2) = 2 * (8 + 1 - 2)
        assert exhaustive_degree_bound(cyclic9_net()) == 14

    def test_cycle_in_the_measured_block_only(self):
        """The backward pass over the measured block finds its cycle, so the bound is D = 1 * (1 + 3 - 2)."""
        net = NetworkModel(
            4,
            [Edge(1, 2, known=True), Edge(2, 1, known=True), Edge(2, 3, known=True), Edge(0, 1, known=False)],
            [0],
            [3],
        )
        assert exhaustive_degree_bound(net) == 2
        assert repetition_table(net, 2 * net.n).exhaustive is True
        assert repetition_table(net, 1).exhaustive is False

    def test_measured_block_suffix_counts(self):
        """An acyclic 2-edge suffix after the unknown edge adds 2 to the bound; the excited side adds nothing."""
        net = NetworkModel(
            4,
            [Edge(1, 2, known=True), Edge(2, 3, known=True), Edge(1, 3, known=True), Edge(0, 1, known=False)],
            [0],
            [3],
        )
        assert exhaustive_degree_bound(net) == 2
        assert repetition_table(net, 2).exhaustive is True
        assert repetition_table(net, 1).exhaustive is False

    def test_bound_marks_the_exhaustive_threshold(self):
        for net in separable_square_corpus(10, acyclic=True, start_seed=800):
            d = exhaustive_degree_bound(net)
            assert d is not None
            assert repetition_table(net, d).exhaustive is True
            if d > 0 and not repetition_table(net, d - 1).infeasible_pivots:
                assert repetition_table(net, d - 1).exhaustive is False


class TestOneStructuralPass:
    def test_separate_and_each_sweep_run_once_per_table(self):
        """One table separates once and sweeps from the same starts at most once.

        The sweeps are from all excitations and into all measurements, then,
        unless a zero column settles it, from each excitation and into each
        measurement (a one-port sweep is the all-port one).
        """
        nets = [cyclic9_net(), fan_net(), cancel_net(), unreachable_net()]
        nets += list(separable_square_corpus(16, acyclic=False, start_seed=1000))
        full = 0
        for net in nets:
            assert len(calls(netmodel.separate, lambda: repetition_table(net, 6))) == 1
            sweeps = [args["starts"] for args in calls(identifiability._reach, lambda: repetition_table(net, 6))]
            union = {net.excited, net.measured}
            per_port = {(v,) for v in net.excited + net.measured}
            assert len(sweeps) == len(set(sweeps))
            assert union <= set(sweeps) <= union | per_port
            if repetition_table(net, 6).counts:
                full += 1
                assert set(sweeps) == union | per_port
        assert full >= 3

    def test_one_pass_per_default_search(self):
        """The default search separates once and sweeps from the same starts at most once, over all its bounds."""
        nets = [cyclic9_net(), cancel_net()] + list(separable_square_corpus(16, acyclic=False, start_seed=1000))
        searched = 0
        for net in nets:
            assert len(calls(netmodel.separate, lambda: combinatorial_verdict(net))) == 1
            sweeps = [args["starts"] for args in calls(identifiability._reach, lambda: combinatorial_verdict(net))]
            assert len(sweeps) == len(set(sweeps))
            searched += len(calls(repetition_table, lambda: combinatorial_verdict(net))) > 1
        assert searched >= 1


def _perfbench_inputs():
    """The benchmark's own seeded network generator, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDefaultSearch:
    """With no bound the walk route refutes from the structure, or searches the bounds upward to min(D, 2n)."""

    def test_rank_bound_refutes_without_listing_a_walk(self, monkeypatch):
        """cancel_net's two unknown edges leave one tail, whose heads reach the measurement along one walk.

        The lift of a separable 8-node draw is refuted the same way; without
        the bound, its count at 2n = 32 runs for more than 20 s.
        """
        source = random_network(
            nodes=8, unknowns=4, excited=2, measured=2, known_density=0.3, separable=True, acyclic=False, seed=7
        )

        def refuse(*args):
            raise AssertionError("enumerate_walks called on a structurally refuted net")

        monkeypatch.setattr(combinatorial, "enumerate_walks", refuse)
        v = combinatorial_verdict(cancel_net())
        assert (v.decision, v.max_degree, v.exhaustive) == (NOT_IDENTIFIABLE, 0, True)
        assert v.witness == {"rank_bound": {"bound": 1, "by": "tails", "node": 3, "unknown_edges": 2, "rank": 1}}
        lift = necessary_condition_any_topology(source)
        assert (lift.decision, lift.notion, lift.exhaustive) == (NOT_IDENTIFIABLE, DECOUPLED_GENERIC, True)
        assert lift.witness["rank_bound"]["bound"] < source.m_unknown

    @staticmethod
    def _pool():
        yield from separable_square_corpus(40, acyclic=True)
        yield from separable_square_corpus(40, acyclic=False, start_seed=1000)
        inputs = _perfbench_inputs()
        for i in range(300):
            yield inputs.cyclic_net(1, i)

    def test_same_decision_and_witness_as_the_2n_route(self):
        """Wherever the 2n table is final, the default decides alike; an identifiable verdict has the same witness."""
        kinds = Counter()
        for net in self._pool():
            default, full = combinatorial_verdict(net), combinatorial_verdict(net, 2 * net.n)
            if full.decision == INCONCLUSIVE:
                assert default.decision == INCONCLUSIVE or "rank_bound" in default.witness, net
                continue
            assert default.decision == full.decision, net
            if default.decision == IDENTIFIABLE:
                assert default.witness == full.witness, net
                kinds["survivor below 2n" if default.max_degree < 2 * net.n else "survivor at 2n"] += 1
            elif default.witness and "rank_bound" in default.witness:
                kinds["rank bound"] += 1
        assert kinds["rank bound"] >= 50 and kinds["survivor below 2n"] >= 200, kinds

    def test_each_bound_counted_once_up_to_the_stop(self):
        """The searched bounds run upward by one from the least collection degree; none passes the verdict's bound."""
        inputs = _perfbench_inputs()
        nets = [cyclic9_net(), fan_net()] + list(separable_square_corpus(40, acyclic=False, start_seed=1000))
        nets += [inputs.cyclic_net(1, i) for i in range(60)]
        for net in nets:
            verdicts = []
            tables = [c["max_degree"] for c in calls(repetition_table, lambda: verdicts.append(combinatorial_verdict(net)))]
            walks = [c["max_degree"] for c in calls(enumerate_walks, lambda: combinatorial_verdict(net))]
            stop = verdicts[0].max_degree
            if tables:
                assert tables == list(range(tables[0], stop + 1)), net
            assert all(d <= stop for d in walks), net
        tables = [c["max_degree"] for c in calls(repetition_table, lambda: combinatorial_verdict(cyclic9_net()))]
        assert tables == [4, 5]

    def test_block_adjacency_built_once_per_verdict(self):
        """The searched bounds share one adjacency per block; the walks equal those listed without it."""
        inputs = _perfbench_inputs()
        nets = [cyclic9_net()] + [inputs.cyclic_net(1, i) for i in range(60)]
        searched = 0
        for net in nets:
            tables = calls(repetition_table, lambda: combinatorial_verdict(net))
            built = calls(identifiability._known_adjacency, lambda: combinatorial_verdict(net))
            walks = calls(enumerate_walks, lambda: combinatorial_verdict(net))
            assert len(built) == (2 if walks else 0), net
            searched += len(tables) >= 2
            for c in walks:
                assert c["pivot_idx"] == net.edges.index(c["pivot"]), net
                bare = enumerate_walks(net, c["blocks"], c["pivot"], c["max_degree"])
                assert enumerate_walks(**c) == bare, net
        assert searched >= 5


class TestVerdicts:
    def test_minimal_witness(self):
        v = combinatorial_verdict(minimal_net())
        assert v.decision == IDENTIFIABLE
        assert v.notion == GLOBAL_SEPARABLE
        assert v.exhaustive is True
        assert v.witness == {
            "monomial": "1",
            "repetition": 1,
            "walks": [{"nodes": [1, 2], "pivot": "1->2"}],
        }

    def test_fan_witness_is_lex_smallest(self):
        v = combinatorial_verdict(fan_net())
        assert v.decision == IDENTIFIABLE
        assert v.witness["monomial"] == "g(1->3)*g(2->4)"
        assert v.witness["repetition"] == 1
        assert v.witness["walks"] == [
            {"nodes": [1, 3, 5], "pivot": "3->5"},
            {"nodes": [2, 4, 5], "pivot": "4->5"},
        ]

    def test_unreachable_no_walk_witness(self):
        v = combinatorial_verdict(unreachable_net())
        assert v.decision == NOT_IDENTIFIABLE
        assert v.exhaustive is True
        assert v.witness == {"no_walk_pivots": ["2->3"]}

    def test_cancellation_refuted_without_witness(self):
        """At an explicit bound the all-zero table is the whole refutation; by default the structure gives it."""
        v = combinatorial_verdict(cancel_net(), 4)
        assert v.decision == NOT_IDENTIFIABLE
        assert v.exhaustive is True
        assert v.witness is None

    def test_cyclic_bound_sensitivity(self):
        """Degree 4 sees only cancellations; degree 5 finds a survivor."""
        net = cyclic9_net()
        v4 = combinatorial_verdict(net, max_degree=4)
        assert v4.decision == INCONCLUSIVE
        assert v4.exhaustive is False
        t4 = repetition_table(net, 4)
        assert t4.entries and all(r == 0 for r in t4.entries.values())
        v5 = combinatorial_verdict(net, max_degree=5)
        assert v5.decision == IDENTIFIABLE
        assert v5.exhaustive is False
        t5 = repetition_table(net, 5)
        assert any(r == 0 for r in t5.entries.values()), "cancelled entries must be retained"

    def test_witness_repetition_matches_table(self):
        for net in separable_square_corpus(12, acyclic=False, start_seed=900):
            v = combinatorial_verdict(net, max_degree=6)
            if v.decision != IDENTIFIABLE:
                continue
            t = repetition_table(net, 6)
            key = {format_monomial(net, mu): r for mu, r in t.entries.items()}
            assert key[v.witness["monomial"]] == v.witness["repetition"]
            assert len(v.witness["walks"]) == net.m_unknown
            pivots = {w["pivot"] for w in v.witness["walks"]}
            assert pivots == {str(e) for e in net.unknown_edges}

    def test_agrees_with_generic_determinant_when_conclusive(self):
        for net in separable_square_corpus(20, acyclic=True, start_seed=1000):
            bound = exhaustive_degree_bound(net)
            v = verdict_from_table(net, repetition_table(net, bound))
            assert v.decision != INCONCLUSIVE
            assert (v.decision == IDENTIFIABLE) == generic_det_nonzero(net), f"split on {net}"

    def test_rejects_no_unknowns(self):
        net = NetworkModel(2, [Edge(0, 1, known=True)], [0], [1])
        with pytest.raises(NoUnknownEdgesError):
            combinatorial_verdict(net)


class TestNecessaryCondition:
    def test_minimal_identifiable(self):
        v = necessary_condition_any_topology(minimal_net())
        assert v.decision == IDENTIFIABLE
        assert v.notion == DECOUPLED_GENERIC

    def test_unreachable_refuted(self):
        v = necessary_condition_any_topology(unreachable_net())
        assert v.decision == NOT_IDENTIFIABLE

    def test_refutation_implies_local_refutation(self):
        """not-identifiable on the decoupled form must force the local verdict down."""
        for net in separable_square_corpus(10, acyclic=True, start_seed=1100):
            v = necessary_condition_any_topology(net)
            if v.decision == NOT_IDENTIFIABLE:
                assert local_identifiability(net).decision == NOT_IDENTIFIABLE

    def test_rejects_non_square_source(self):
        net = NetworkModel(2, [Edge(0, 1, known=False), Edge(1, 0, known=False)], [0], [1])
        with pytest.raises(NotSquareError):
            necessary_condition_any_topology(net)
