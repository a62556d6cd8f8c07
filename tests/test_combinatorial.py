"""Walk enumeration, signed counting and the verdicts they support."""

import itertools
import math
from collections import Counter
from typing import Iterable

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
from netident.oracle import _parity, symbolic_closed_loop, terms_sorted
from netident import combinatorial, identifiability, netmodel

from corpus import (
    SQUARE_COMBOS,
    bipartite_net,
    chain_net,
    cut_net,
    cyclic9_net,
    fan_net,
    general_square_corpus,
    minimal_net,
    separable_square_corpus,
    unreachable_net,
)
from helpers import calls, monomial_of, perfbench_inputs, repetition_reference


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


def walks_of(net: NetworkModel, pivot: int, max_degree: int) -> list:
    """``enumerate_walks`` through ``net.edges[pivot]``, given the known-edge graph as ``repetition_table`` gives it."""
    return enumerate_walks(net, identifiability._Structure(net).known_adjacency, pivot, max_degree)


def derived(net: NetworkModel, walk) -> tuple[int, int, list[int]]:
    """(start, end, unknown edges) of a walk, read off its edge indices."""
    return net.edges[walk[0]].src, net.edges[walk[-1]].dst, [i for i in walk if not net.edges[i].known]


def known_of(net: NetworkModel, walk) -> list[int]:
    return [i for i in walk if net.edges[i].known]


def first_collection(net: NetworkModel, table, mu, sign):
    """``combinatorial._first_collection`` for any (monomial, sign), over the walk lists ``table`` was counted from.

    The monomial is packed into the table's fields, a top guard bit per
    field, and the guards are summed field by field; a monomial with an
    edge no listed walk uses has no collection.
    """
    width, fields, structure = table.width, table.fields, identifiability._Structure(net)
    spare = table.max_degree - sum(structure.least_degrees)
    layers, listed = combinatorial._walk_layers(net, structure, spare, width)
    assert listed == fields
    if any(i not in fields for i, _ in mu):
        return None
    target = sum(c << fields.index(i) * width for i, c in mu)
    guards = sum(1 << j * width + width - 1 for j in range(len(fields)))
    return combinatorial._first_collection(layers, guards, target, sign)


class TestEnumerateWalks:
    def test_chain_single_walk(self):
        net = chain_net()
        walks = walks_of(net, 1, 3)
        assert walks == [(0, 1)]
        assert derived(net, walks[0]) == (0, 2, [1])
        assert known_of(net, walks[0]) == [0]
        assert walk_nodes(net, walks[0]) == [0, 1, 2]

    def test_minimal_degree_zero_walk(self):
        net = minimal_net()
        walks = walks_of(net, 0, 2)
        assert walks == [(0,)]
        assert derived(net, walks[0]) == (0, 1, [0])
        assert walk_nodes(net, walks[0]) == [0, 1]

    def test_fan_two_prefixes_per_pivot(self):
        net = fan_net()
        walks = walks_of(net, 4, 2)
        assert sorted(walks) == [(0, 4), (2, 4)]
        assert sorted(derived(net, w) for w in walks) == [(0, 4, [4]), (1, 4, [4])]

    def test_prefix_bound_respected(self):
        net = chain_net()
        assert walks_of(net, 1, 0) == []
        assert len(walks_of(net, 1, 1)) == 1

    def test_cyclic_block_walks_grow_with_bound(self):
        net = cyclic9_net()
        short = walks_of(net, 9, 3)
        long = walks_of(net, 9, 5)
        assert len(long) > len(short)
        assert all(len(w) - 1 <= 5 and derived(net, w)[2] == [9] for w in long)
        assert sorted(w for w in long if len(w) - 1 <= 3) == sorted(short)

    def test_no_walk_above_the_bound_is_built(self, monkeypatch):
        """The bound caps prefix and suffix together, so nothing is built and then dropped.

        Each suffix search is bounded by 4 less the shortest prefix, and no
        listed walk has more than 4 known edges.
        """
        searches = []
        walks_between = combinatorial._walks_between

        def recording(adj, start, goal, bound):
            found = walks_between(adj, start, goal, bound)
            searches.append((start, goal, bound, found))
            return found

        monkeypatch.setattr(combinatorial, "_walks_between", recording)
        suffixes = 0
        for net in separable_square_corpus(6, acyclic=False, start_seed=700):
            for i, pivot in enumerate(net.edges):
                if pivot.known:
                    continue
                searches.clear()
                walks = walks_of(net, i, 4)
                prefixes = [found for _, goal, bound, found in searches if goal == pivot.src and bound == 4]
                assert len(prefixes) == net.n_excited
                shortest = min((len(p) for found in prefixes for p in found), default=None)
                for start, _, bound, _ in searches[len(prefixes):]:
                    assert start == pivot.dst and bound <= 4 - shortest
                    suffixes += 1
                assert all(len(known_of(net, w)) <= 4 for w in walks)
        assert suffixes > 0


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
        assert t.witness is None

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
        assert t.witness == {"no_walk_pivots": ["2->3"]}

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
            (dead_row, {"no_walk_rows": [[2, 4]]}),
            (zero_column, {"no_walk_pivots": ["4->5"]}),
        )
        for net, witness in cases:
            assert exhaustive_degree_bound(net) == 0
            for d in (0, 3, 8, None):
                t = repetition_table(net, d or 0)
                # the table the full enumeration builds
                assert (t.entries, t.survivor, t.max_degree, t.exhaustive) == ({}, None, d or 0, True)
                assert t.witness == witness
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
        """A separable net with two unknown edges and one (excitation, measurement) pair: the table and the oracle refuse it."""
        net = NetworkModel(3, [Edge(0, 2, known=False), Edge(1, 2, known=False)], [0], [2])
        separate(net)
        with pytest.raises(NotSquareError):
            repetition_table(net, 3)
        with pytest.raises(NotSquareError):
            symbolic_det(net, 3)

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
    ends = [derived(net, w)[:2] for w in walks]
    return [net.excited.index(start) * net.n_measured + net.measured.index(end) for start, end in ends]


def _brute_force_entries(net: NetworkModel, walk_lists, max_degree: int) -> dict:
    """Every collection within the bound, one walk per unknown edge, signed by the permutation parity of its rows."""
    signed: dict = {}
    for c in itertools.product(*walk_lists):
        rows = _rows(net, c)
        if sorted(rows) == list(range(len(walk_lists))) and sum(len(w) - 1 for w in c) <= max_degree:
            mu = monomial_of(i for w in c for i in known_of(net, w))
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
        walk_lists = [walks_of(net, i, d + 2) for i in pivots]

        def is_collection(walks, mu, sign):
            rows = _rows(net, walks)
            return (
                sorted(rows) == list(range(len(pivots)))
                and _parity(rows) == sign
                and monomial_of(i for w in walks for i in known_of(net, w)) == mu
            )

        _, first = repetition_reference(net, d + 2)
        for mu, r in hi.entries.items():
            if r != 0:
                assert (mu, 1 if r > 0 else -1) in first
        brute = math.prod(map(len, walk_lists)) <= 5000
        if brute:
            assert hi.entries == _brute_force_entries(net, walk_lists, d + 2)
        # every (monomial, sign) some collection has: the search rebuilds its first collection
        for (mu, sign), walks in first.items():
            assert mu in hi.entries
            assert first_collection(net, hi, mu, sign) == walks
            assert [derived(net, w)[2] for w in walks] == [[i] for i in pivots]
            assert is_collection(walks, mu, sign)
            if brute:
                matching = [c for c in itertools.product(*walk_lists) if is_collection(c, mu, sign)]
                assert min(matching) == walks
        # and a (monomial, sign) no collection has finds nothing
        for mu in hi.entries:
            for sign in (1, -1):
                if (mu, sign) not in first:
                    assert first_collection(net, hi, mu, sign) is None
                    if brute:
                        assert not any(is_collection(c, mu, sign) for c in itertools.product(*walk_lists))
            if monomial_degree(mu) < d + 2 and mu:
                bumped = tuple((i, c + (k == 0)) for k, (i, c) in enumerate(mu))
                if bumped not in hi.entries:
                    assert first_collection(net, hi, bumped, 1) is None
                    assert first_collection(net, hi, bumped, -1) is None
        if hi.survivor is not None:
            mu, r, coll = hi.survivor
            assert coll == first[mu, 1 if r > 0 else -1]


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
    """The count packs each known edge's multiplicity into max(max_degree, 1).bit_length() bits, under a guard bit.

    At bound m the one monomial is g(1->2)^m, which fills its field below
    the guard exactly for m = 1 (one bit) and m = 3 (two bits); the other
    bounds sit on either side of a change of width.  The witness search
    fits walks against that full field: the least survivor g(1->2)^m has
    the collection of walks 1->2->(j+3), one per unknown edge.
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
        walk_lists = [walks_of(net, i, max_degree) for i, e in enumerate(net.edges) if not e.known]
        assert table.entries == _brute_force_entries(net, walk_lists, max_degree)
        least = ((0, m),), 1, tuple((0, 2 + j) for j in range(m))
        assert table.survivor == (least if max_degree >= m else None)


def layered_net() -> NetworkModel:
    """A 2x2 net with complete known layers 1,2 -> 3,4 -> 5,6 and 7,8 -> 9,10 -> 11,12, unknown 5,6 -> 7,8.

    Shaped like the benchmark's acyclic nets: at its exhaustive bound of 16
    the table has 361 entries, 81 of them surviving.
    """
    layers = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]
    known = [Edge(u, v, known=True) for a, b in zip(layers, layers[1:]) if a != layers[2] for u in a for v in b]
    unknown = [Edge(u, v, known=False) for u in layers[2] for v in layers[3]]
    return NetworkModel(12, known + unknown, layers[0], layers[-1])


def _least_by_decoded_entries(net, table):
    """The verdict's selection rule over the decoded table: least nonzero entry by (degree, monomial).

    The collection is the reference count's first one of the entry's sign.
    """
    mu = min((mu for mu, r in table.entries.items() if r != 0), key=lambda mu: (monomial_degree(mu), mu), default=None)
    if mu is None:
        return None
    r = table.entries[mu]
    return mu, r, repetition_reference(net, table.max_degree)[1][mu, 1 if r > 0 else -1]


class TestLazyTable:
    """The table stays packed until read; it decodes only its least survivor, as it is built."""

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
        """Only the least survivor is decoded, once, as the table is built; all 81 survivors of layered_net have degree 16."""
        decode = combinatorial._decode
        decoded = []
        monkeypatch.setattr(combinatorial, "_decode", lambda p, f, w: decoded.append(p) or decode(p, f, w))
        survivors = cancelled = 0
        for net, bound in self._cases():
            decoded.clear()
            table = repetition_table(net, bound)
            least = table.survivor
            assert len(decoded) == (least is not None)
            verdict = verdict_from_table(net, table)
            assert len(decoded) == (least is not None)
            assert "entries" not in vars(table)
            assert least == _least_by_decoded_entries(net, table), f"{net} at {bound}"
            if net == layered_net():
                assert [monomial_degree(mu) for mu, r in table.entries.items() if r] == [16] * 81
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
                    {"nodes": [v + 1 for v in walk_nodes(net, w)], "pivot": str(net.edges[derived(net, w)[2][0]])}
                    for w in coll
                ],
            }
        # both branches are reached: survivors, and tables whose every entry cancels
        assert survivors >= 10 and cancelled >= 3

    def test_walk_route_leaves_the_table_undecoded(self):
        net = layered_net()
        bound = exhaustive_degree_bound(net)
        _, table, verdict = combinatorial._walk_route(net, bound)
        assert verdict.decision == IDENTIFIABLE
        assert "entries" not in vars(table)
        fresh = repetition_table(net, bound)
        assert list(table.entries.items()) == list(fresh.entries.items())
        assert table.survivor == fresh.survivor == _least_by_decoded_entries(net, fresh)
        assert len(table.entries) == 361
        assert table.entries is table.entries

    def test_keys_listed_in_first_collection_order(self):
        """Entries follow the lexicographically first collection of each monomial, of either sign.

        Where brute force is small enough, that order comes from every
        collection; everywhere it equals the reference count's, whose first
        collections ascend by edge sequence.
        """
        nets = [layered_net(), cyclic9_net(), cancel_net(), fan_net()]
        nets += list(separable_square_corpus(10, acyclic=True, start_seed=1200))
        nets += list(separable_square_corpus(10, acyclic=False, start_seed=1300))
        brute_checked = 0
        for net in nets:
            table = repetition_table(net, 6)
            # decoding keeps the order of the packed dict
            assert list(table.entries) == [combinatorial._decode(p, table.fields, table.width) for p in table.counts]
            _, first = repetition_reference(net, 6)
            order = list(first.values())
            assert order == sorted(order) and len(set(map(repr, order))) == len(order)
            assert list(table.entries) == list(dict.fromkeys(mu for mu, _ in first))
            walk_lists = [walks_of(net, i, 6) for i, e in enumerate(net.edges) if not e.known]
            if table.entries and math.prod(map(len, walk_lists)) <= 5000:
                brute_checked += 1
                least: dict = {}
                for c in itertools.product(*walk_lists):
                    rows = _rows(net, c)
                    if sorted(rows) == list(range(len(walk_lists))) and sum(len(w) - 1 for w in c) <= 6:
                        mu = monomial_of(i for w in c for i in known_of(net, w))
                        least[mu] = min(least.get(mu, c), c)
                assert list(table.entries) == sorted(least, key=least.__getitem__), net
        assert brute_checked >= 5


class TestWitnessSearch:
    def test_fit_is_tested_field_by_field(self):
        """Four walks of one edge are not one walk of the next, though their packed sum is.

        Two 2-bit fields (multiplicity bit, guard bit): four layers, one row
        each, offer walk (0,) with monomial g_0 and, on layer 0, walk (1,)
        with g_1, else (2,) with monomial 1.  4 * g_0 packs to the integer
        of g_1, so only the per-field fit keeps the least walks (0,) out of
        the collection for g_1.
        """
        layers = [[((0,), 0, 1, 0b01), ((1,), 0, 1, 0b0100)]]
        layers += [[((0,), k, 1, 0b01), ((2,), k, 0, 0)] for k in (1, 2, 3)]
        guards = 0b1010
        assert combinatorial._first_collection(layers, guards, 0b0100, 1) == ((1,), (2,), (2,), (2,))
        assert combinatorial._first_collection(layers, guards, 0b0100, -1) is None
        assert combinatorial._first_collection(layers, guards, 0b01, 1) == ((0,), (2,), (2,), (2,))
        assert combinatorial._first_collection(layers, guards, 0b0101, 1) == ((1,), (0,), (2,), (2,))
        assert combinatorial._first_collection(layers, guards, 0, 1) is None


class TestSignedCountMatchesTheReference:
    """The count merged across signs lists what the sign-split reference count lists, in its order, with its witness."""

    @staticmethod
    def _cases():
        """Corpus nets at bounds 4, 6 and D, hand-made nets, and lifts of general nets.

        A cyclic corpus net's D is capped at 10: net 14 of this corpus has
        D = 16, where the reference counts for seconds.
        """
        for net in separable_square_corpus(40, acyclic=True):
            for d in sorted({4, 6, exhaustive_degree_bound(net)}):
                yield net, d
        for net in separable_square_corpus(40, acyclic=False, start_seed=1000):
            for d in sorted({4, 6, min(exhaustive_degree_bound(net), 10)}):
                yield net, d
        yield layered_net(), 16
        yield cancel_net(), 12
        for d in (4, 5, 14):
            yield cyclic9_net(), d
        for net in general_square_corpus(20, start_seed=5000):
            for d in (4, 6, 8):
                yield netmodel.decouple(net), d

    def test_counts_order_and_witness_equal_the_reference(self):
        kinds = Counter()
        for net, d in self._cases():
            table = repetition_table(net, d)
            entries, first = repetition_reference(net, d)
            assert list(table.entries.items()) == list(entries.items()), (net, d)
            assert list(table.counts.values()) == list(entries.values()), (net, d)
            survivors = [mu for mu, r in entries.items() if r]
            if not survivors:
                assert table.survivor is None, (net, d)
                kinds["cancelled" if entries else "empty"] += 1
                continue
            mu = min(survivors, key=lambda mu: (monomial_degree(mu), mu))
            r = entries[mu]
            assert table.survivor == (mu, r, first[mu, 1 if r > 0 else -1]), (net, d)
            kinds["survivor"] += 1
        assert kinds["survivor"] >= 50 and kinds["cancelled"] >= 10, kinds


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
            if d > 0 and repetition_table(net, d - 1).witness is None:
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


class TestDefaultSearch:
    """With no bound the walk route refutes from the structure, or searches the bounds upward to min(D, 2n)."""

    def test_rank_bound_refutes_without_listing_a_walk(self, monkeypatch):
        """cancel_net's two unknown edges leave one tail, whose heads reach the measurement along one walk.

        cut_net's heads and tails each allow its three columns, but its
        2-node cut allows two.  The lift of a separable 8-node draw is
        refuted the same way; without the bound, its count at 2n = 32 runs
        for more than 20 s.
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
        v = combinatorial_verdict(cut_net())
        assert (v.decision, v.max_degree, v.exhaustive) == (NOT_IDENTIFIABLE, 0, True)
        assert v.witness == {"rank_bound": {"bound": 2, "by": "product", "heads_to_measured": 1, "excited_to_tails": 2}}
        lift = necessary_condition_any_topology(source)
        assert (lift.decision, lift.notion, lift.exhaustive) == (NOT_IDENTIFIABLE, DECOUPLED_GENERIC, True)
        assert lift.witness["rank_bound"]["bound"] < source.m_unknown

    @staticmethod
    def _pool():
        yield from separable_square_corpus(40, acyclic=True)
        yield from separable_square_corpus(40, acyclic=False, start_seed=1000)
        inputs = perfbench_inputs()
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
        inputs = perfbench_inputs()
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
        """The searched bounds share one known-edge graph, built once per verdict that lists a walk.

        The product rank bound refutes most draws that search two or more
        bounds, so the pool is wide enough to keep five that still do.
        """
        inputs = perfbench_inputs()
        nets = [cyclic9_net()] + [inputs.cyclic_net(1, i) for i in range(1500)]
        searched = 0
        for net in nets:
            tables = calls(repetition_table, lambda: combinatorial_verdict(net))
            built = calls(identifiability._Structure.known_adjacency.func, lambda: combinatorial_verdict(net))
            walks = calls(enumerate_walks, lambda: combinatorial_verdict(net))
            assert len(built) == (1 if walks else 0), net
            searched += len(tables) >= 2
            if walks:
                assert len({id(c["adjacency"]) for c in walks}) == 1, net
                assert walks[0]["adjacency"] == part_adjacency(net, range(net.n)), net
        assert searched >= 5

    def test_walk_k_runs_through_unknown_edge_k(self):
        """The verdict names the k-th walk's pivot as the k-th unknown edge: each first collection bears that out.

        The collections are the search's, for every (monomial, sign) the
        reference count finds, the least survivor's among them.
        """
        collections = 0
        for net in separable_square_corpus(20, acyclic=False):
            pivots = [i for i, e in enumerate(net.edges) if not e.known]
            table = repetition_table(net, 6)
            _, first = repetition_reference(net, 6)
            for mu, sign in first:
                coll = first_collection(net, table, mu, sign)
                collections += 1
                assert len(coll) == len(pivots)
                for walk, pivot in zip(coll, pivots):
                    assert walk.count(pivot) == 1 and derived(net, walk)[2] == [pivot], net
        assert collections >= 20


def part_adjacency(net: NetworkModel, part: Iterable[int]) -> dict:
    """The known edges whose tail lies in ``part``, as tail -> [(edge index, head)] in net.edges order."""
    part, adj = set(part), {}
    for i, e in enumerate(net.edges):
        if e.known and e.src in part:
            adj.setdefault(e.src, []).append((i, e.dst))
    return adj


def known_paths(adj: dict, start: int, goal: int, bound: int) -> list[tuple[int, ...]]:
    """Every edge-index path along ``adj`` from start to goal with at most ``bound`` edges, depth first, recursively."""
    out = [()] if start == goal else []

    def grow(node: int, path: tuple[int, ...]) -> None:
        if len(path) < bound:
            for i, head in adj.get(node, ()):
                if head == goal:
                    out.append(path + (i,))
                grow(head, path + (i,))

    grow(start, ())
    return out


class TestOneKnownEdgeGraph:
    """A separable net's known edges never leave their part, so one known-edge graph serves both blocks."""

    @staticmethod
    def _pool():
        yield from separable_square_corpus(40, acyclic=True)
        yield from separable_square_corpus(40, acyclic=False, start_seed=1000)
        for net in general_square_corpus(20, start_seed=5000):
            yield netmodel.decouple(net)

    def test_known_edges_stay_in_their_part(self):
        for net in self._pool():
            blocks = separate(net)
            for e in net.known_edges:
                assert {e.src, e.dst} <= blocks.b_part or {e.src, e.dst} <= blocks.c_part, (net, e)

    def test_walks_equal_the_listing_over_two_block_adjacencies(self):
        """Prefixes over the excited block's known edges, suffixes over the measured block's, in the listing's order."""
        bound, listed = 6, 0
        for net in self._pool():
            blocks = separate(net)
            adj_b, adj_c = part_adjacency(net, blocks.b_part), part_adjacency(net, blocks.c_part)
            adjacency = identifiability._Structure(net).known_adjacency
            for pivot, e in enumerate(net.edges):
                if e.known:
                    continue
                prefixes = [sorted(known_paths(adj_b, b, e.src, bound), key=len) for b in net.excited]
                expected = [
                    prefix + (pivot,) + suffix
                    for c in net.measured
                    for suffix in known_paths(adj_c, e.dst, c, bound)
                    for ps in prefixes
                    for prefix in ps
                    if len(prefix) + len(suffix) <= bound
                ]
                assert enumerate_walks(net, adjacency, pivot, bound) == expected, (net, pivot)
                listed += len(expected)
        assert listed >= 1000, listed

    def test_closed_loop_within_each_part_is_that_block_expansion(self):
        """Each entry within a part sums its block's known-edge walks, expanded here walk by walk."""
        bound, repeated = 4, 0
        for net in self._pool():
            loop, blocks = symbolic_closed_loop(net, bound), separate(net)
            for part in (blocks.b_part, blocks.c_part):
                adj = part_adjacency(net, part)
                for j in part:
                    for i in part:
                        expected = Counter(
                            frozenset(Counter(path).items()) for path in known_paths(adj, i, j, bound)
                        )
                        assert loop[j][i].terms == dict(expected), (net, i, j)
                        repeated += any(c > 1 for c in expected.values())
        assert repeated >= 100, repeated


class TestStructureFirstAtEveryBound:
    """An explicit bound asks the structure first too: a refuted net is "not identifiable" at every bound."""

    # exhaustive_degree_bound on criterion 6's corpus; the completeness bound reads no structural refutation
    CRITERION_6_BOUNDS = [
        0, 6, 0, 20, 9, 0, 0, 24, 0, 0, 0, 0, 0, 12, 20, 0, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 20, 0, 1, 0,
        8, 0, 2, 12, 20, 24, 0, 8, 0, 0, 9, 0, 0, 0, 0, 8, 10, 0, 0, 0, 0, 5, 0, 8, 10, 0, 0, 9, 0, 24, 1, 8, 0, 24,
        9, 0, 20, 20, 0, 4, 8, 0, 9, 0, 0, 24, 0, 0, 10, 0, 9, 0, 20, 24, 2, 0, 0, 0, 0, 6, 20, 0, 0, 6, 0, 16,
    ]

    @staticmethod
    def _criterion_6_corpus():
        return list(separable_square_corpus(100, acyclic=False, start_seed=6000))

    def test_verdict_is_the_counted_tables_verdict_at_every_bound(self):
        """combinatorial_verdict(net, d) == verdict_from_table(net, repetition_table(net, d)) for d up to min(D, 2n, 8).

        A table the rank bound refutes is still counted in full, and every
        entry it counts cancels.  Past bound 8 a few 8-node nets of the
        corpus count for seconds per bound (net 87 takes 3 s at 12), so the
        sweep stops there; it covers min(D, 2n) on 73 of the 101 nets.
        """
        refuted_below_d = counted_refutations = 0
        for net in self._criterion_6_corpus() + [cyclic9_net()]:
            top = min(exhaustive_degree_bound(net), 2 * net.n, 8)
            for d in range(top + 1):
                table = repetition_table(net, d)
                verdict = combinatorial_verdict(net, d)
                assert verdict == verdict_from_table(net, table), (net, d)
                if table.witness and "rank_bound" in table.witness:
                    assert table.exhaustive and not any(table.counts.values()), (net, d)
                    counted_refutations += bool(table.counts)
                    refuted_below_d += d < exhaustive_degree_bound(net)
        assert refuted_below_d >= 100 and counted_refutations >= 40, (refuted_below_d, counted_refutations)

    def test_refuted_nets_list_no_walk_and_count_no_table(self, monkeypatch):
        """cancel_net and the lift of a separable 8-node draw are refuted at every bound without a walk or a table."""
        source = random_network(
            nodes=8, unknowns=4, excited=2, measured=2, known_density=0.3, separable=True, acyclic=False, seed=7
        )
        lift = netmodel.decouple(source)

        def refuse(*args, **kwargs):
            raise AssertionError("walks listed or a table counted on a structurally refuted net")

        monkeypatch.setattr(combinatorial, "enumerate_walks", refuse)
        monkeypatch.setattr(combinatorial, "repetition_table", refuse)
        for d in (0, 3, 4, 12, 32):
            for check, net, notion in (
                (combinatorial_verdict, cancel_net(), GLOBAL_SEPARABLE),
                (necessary_condition_any_topology, cancel_net(), DECOUPLED_GENERIC),
                (combinatorial_verdict, lift, GLOBAL_SEPARABLE),
                (necessary_condition_any_topology, source, DECOUPLED_GENERIC),
            ):
                v = check(net, d)
                assert (v.decision, v.notion, v.max_degree, v.exhaustive) == (NOT_IDENTIFIABLE, notion, d, True)
                assert v.witness["rank_bound"]["bound"] < v.m_unknown

    def test_exhaustive_degree_bound_is_unchanged(self):
        """The bound at which the count is complete does not read the structural refutation."""
        assert [exhaustive_degree_bound(net) for net in self._criterion_6_corpus()] == self.CRITERION_6_BOUNDS
        inputs = perfbench_inputs()
        assert {exhaustive_degree_bound(inputs.acyclic_net(1, i)) for i in range(32)} == {16}
        assert exhaustive_degree_bound(cyclic9_net()) == 14


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

    def test_cancellation_refuted_by_the_rank_bound_at_every_bound(self):
        """The structure refutes cancel_net at every bound, below D = 4 too, and the verdict names the rank bound."""
        witness = {"rank_bound": {"bound": 1, "by": "tails", "node": 3, "unknown_edges": 2, "rank": 1}}
        for d in (0, 2, 4, 12):
            v = combinatorial_verdict(cancel_net(), d)
            assert (v.decision, v.max_degree, v.exhaustive, v.witness) == (NOT_IDENTIFIABLE, d, True, witness)

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
        """The walk route's first guard, ahead of the square one this net also fails, and the table's too."""
        net = NetworkModel(2, [Edge(0, 1, known=True)], [0], [1])
        assert not net.is_square
        with pytest.raises(NoUnknownEdgesError):
            combinatorial_verdict(net)
        with pytest.raises(NoUnknownEdgesError):
            repetition_table(net, 2)


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
