"""Verdict semantics for the three identifiability notions: two rank routes, and the walk route for global-separable."""

import random
from collections import Counter

import pytest

from netident import (
    DECOUPLED_GENERIC,
    Edge,
    GLOBAL_SEPARABLE,
    IDENTIFIABLE,
    LOCAL_GENERIC,
    NOT_IDENTIFIABLE,
    NetworkModel,
    NoUnknownEdgesError,
    NotSeparableError,
    NotSquareError,
    combinatorial_verdict,
    decouple,
    decoupled_identifiability,
    is_separable,
    local_identifiability,
    necessary_condition_any_topology,
)
from netident import identifiability, numeric
from netident.identifiability import _disjoint_paths, _Structure
from netident.numeric import random_field_values, rank_field

from helpers import (
    calls,
    closed_loop,
    perfbench_inputs,
    permute,
    rank_bound_candidates,
    rank_bound_reference,
)

from corpus import (
    chain_net,
    cut_net,
    fan_net,
    general_square_corpus,
    minimal_net,
    open_criterion_4_net,
    separable_square_corpus,
    unreachable_net,
)

# A seed whose sample stream shares nothing with the default seed 0.
DISJOINT_SEED = 0x5EED


class TestLocal:
    def test_minimal_identifiable(self):
        v = local_identifiability(minimal_net())
        assert v.decision == IDENTIFIABLE
        assert v.notion == LOCAL_GENERIC
        assert v.rank == 1 and v.m_unknown == 1
        assert v.witness is None

    def test_unreachable_not_identifiable_with_zero_column_witness(self):
        v = local_identifiability(unreachable_net())
        assert v.decision == NOT_IDENTIFIABLE
        assert v.rank == 0
        assert v.witness == {"zero_columns": ["2->3"]}

    def test_fan_identifiable(self):
        assert local_identifiability(fan_net()).decision == IDENTIFIABLE

    def test_too_many_unknowns_rank_deficient(self):
        """Three unknown edges cannot be pinned by a 1x1 response map."""
        net = NetworkModel(
            3,
            [Edge(0, 1, known=False), Edge(0, 2, known=False), Edge(1, 2, known=False)],
            [0],
            [2],
        )
        v = local_identifiability(net)
        assert v.decision == NOT_IDENTIFIABLE
        assert v.rank < v.m_unknown
        assert v.witness is None

    def test_rejects_no_unknowns(self):
        net = NetworkModel(2, [Edge(0, 1, known=True)], [0], [1])
        with pytest.raises(NoUnknownEdgesError):
            local_identifiability(net)

    def test_replayable(self):
        v1 = local_identifiability(fan_net(), seed=7)
        v2 = local_identifiability(fan_net(), seed=7)
        assert v1 == v2
        assert v1.seed == 7

    def test_to_dict_drops_unset_fields(self):
        d = local_identifiability(minimal_net()).to_dict()
        assert d == {
            "decision": IDENTIFIABLE,
            "notion": LOCAL_GENERIC,
            "unknown_edges": 1,
            "seed": 0,
            "rank": 1,
        }


class TestDecoupled:
    def test_minimal_identifiable(self):
        v = decoupled_identifiability(minimal_net())
        assert v.decision == IDENTIFIABLE
        assert v.notion == DECOUPLED_GENERIC

    def test_local_implies_decoupled(self):
        """The decoupled notion is necessary for the local one, never stricter.

        ``decoupled_identifiability`` reads a full local rank as its own, so
        the lift's local rank at a disjoint seed checks the same necessity
        from an independent sample.
        """
        nets = list(general_square_corpus(25, start_seed=300))
        nets += [minimal_net(), chain_net(), fan_net(), unreachable_net()]
        for net in nets:
            local = local_identifiability(net).decision
            dec = decoupled_identifiability(net).decision
            lifted = local_identifiability(decouple(net), seed=DISJOINT_SEED).decision
            if local == IDENTIFIABLE:
                assert dec == IDENTIFIABLE, f"necessity broken on {net}"
                assert lifted == IDENTIFIABLE, f"necessity broken on the lift of {net}"

    def test_two_cycle_one_row_bounds_both_ranks(self):
        """Both directions of a 2-cycle unknown, one excitation and one measurement: neither notion identifies them.

        K has one row, so both ranks are at most 1 of m = 2, in either notion.
        """
        net = NetworkModel(2, [Edge(0, 1, known=False), Edge(1, 0, known=False)], [0], [1])
        for verdict in (local_identifiability(net), decoupled_identifiability(net)):
            assert (verdict.decision, verdict.rank, verdict.m_unknown) == (NOT_IDENTIFIABLE, 1, 2)


def settled_by(net: NetworkModel, seed: int) -> str:
    """Which rule of ``decoupled_identifiability`` gives its rank: "m", "bound" or "sampled"."""
    rank = local_identifiability(net, seed=seed).rank
    if rank == net.m_unknown:
        return "m"
    return "bound" if rank == _Structure(net).rank_bound["bound"] else "sampled"


class TestDecoupledShortcut:
    """The decoupled rank is read off the local rank and the structural bound, and the lift is ranked only when they differ."""

    @staticmethod
    def factorizations(action) -> list[int]:
        """The size of each closed loop factored during ``action()``."""
        return [len(c["rows"]) for c in calls(numeric._sparse_factor, action)]

    @pytest.mark.parametrize(
        "make, rule, factored",
        [
            (fan_net, "m", [1]),
            (unreachable_net, "bound", [1]),
            # items 0 and 1 of the ``check`` pool at seed 1: rank 14 of 14, and 16 of 23 at a bound of 16
            (lambda: perfbench_inputs().check_net(1, 0), "m", [1]),
            (lambda: perfbench_inputs().check_net(1, 1), "bound", [1]),
            (open_criterion_4_net, "sampled", [1, 2]),
        ],
        ids=["fan", "unreachable", "check-full-rank", "check-deficient", "criterion-4-open"],
    )
    def test_check_factorizations(self, make, rule, factored):
        """Local then decoupled at one seed: one closed loop of n nodes, and one of 2n when the lift is ranked."""
        net = make()
        assert numeric._samples_needed(net.n, net.m_unknown) == numeric._samples_needed(2 * net.n, net.m_unknown) == 1
        assert settled_by(net, 1) == rule
        identifiability._local_rank.cache_clear()
        sizes = self.factorizations(lambda: (local_identifiability(net, seed=1), decoupled_identifiability(net, seed=1)))
        assert sizes == [k * net.n for k in factored]

    def test_only_the_last_net_and_seed_are_answered(self):
        """An equal net at the same seed reads the kept rank; a relabeled net or another seed samples it again."""
        net = perfbench_inputs().check_net(1, 1)
        perm = list(range(net.n))
        random.Random(1).shuffle(perm)

        def sampled(action) -> list[tuple[NetworkModel, int]]:
            return [(c["net"], c["seed"]) for c in calls(numeric.generic_rank, action)]

        local_identifiability(net, seed=1)
        equal = NetworkModel(net.n, net.edges, net.excited, net.measured)
        assert sampled(lambda: decoupled_identifiability(equal, seed=1)) == []
        for other, seed in ((permute(net, perm), 1), (net, 2)):
            assert sampled(lambda: decoupled_identifiability(other, seed=seed)) == [(other, seed)]
            assert sampled(lambda: local_identifiability(other, seed=seed)) == []

    def test_equals_sampled_rank_on_criterion_4_corpus(self):
        """On all 500 nets the verdict's rank is the lift's local rank at a disjoint seed, an independent sample."""
        rules = Counter()
        for net in general_square_corpus(500, start_seed=4000):
            rules[settled_by(net, 0)] += 1
            assert decoupled_identifiability(net).rank == numeric.generic_rank(decouple(net), seed=DISJOINT_SEED), net
        print(f"decoupled rank settled by r = m on {rules['m']}, by r = bound on {rules['bound']}, sampled on {rules['sampled']}")
        assert rules == {"m": 83, "bound": 408, "sampled": 9}


class TestSeparableGlobal:
    """Global-separable verdicts come from the walk count alone: no sample, no rank."""

    def test_minimal_identifiable(self):
        v = combinatorial_verdict(minimal_net())
        assert v.decision == IDENTIFIABLE
        assert v.notion == GLOBAL_SEPARABLE
        assert v.rank is None and v.seed is None

    def test_unreachable_not_identifiable(self):
        """The walk witness names the edge the rank witness names."""
        v = combinatorial_verdict(unreachable_net())
        assert v.decision == NOT_IDENTIFIABLE
        assert v.witness["no_walk_pivots"] == local_identifiability(unreachable_net()).witness["zero_columns"]

    def test_rejects_non_separable(self):
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        with pytest.raises(NotSeparableError):
            combinatorial_verdict(net)

    def test_rejects_non_square(self):
        net = NetworkModel(3, [Edge(0, 2, known=False), Edge(1, 2, known=False)], [0], [2])
        with pytest.raises(NotSquareError):
            combinatorial_verdict(net)

    def test_agrees_with_local_on_separable_networks(self):
        """On separable square networks the walk verdict and the local rank verdict coincide; none is inconclusive."""
        for net in separable_square_corpus(30, acyclic=False, start_seed=400):
            g = combinatorial_verdict(net).decision
            loc = local_identifiability(net).decision
            assert g == loc, f"local {loc} but walk verdict {g} on {net}"


def handmade_nets() -> list[NetworkModel]:
    return [minimal_net(), chain_net(), fan_net(), unreachable_net()]


def assert_decoupled_matches_lift_walks(net: NetworkModel) -> None:
    walks = necessary_condition_any_topology(net).decision
    assert walks == decoupled_identifiability(net).decision, f"walk verdict {walks} on the lift of {net}"


class TestDecouplingEquivalence:
    def test_handmade_nets(self):
        """The decoupled rank decision equals the walk verdict on the lift; an inconclusive one fails."""
        for net in handmade_nets():
            assert_decoupled_matches_lift_walks(net)

    def test_random_corpus(self):
        for net in general_square_corpus(25, start_seed=600):
            assert_decoupled_matches_lift_walks(net)

    def test_decoupled_form_is_always_separable_and_square(self):
        """The lift's local rank at a disjoint seed decides as the decoupled rank of its source does."""
        for net in general_square_corpus(15, start_seed=500):
            d = decouple(net)
            assert d.is_square and is_separable(d)
            v = local_identifiability(d, seed=DISJOINT_SEED)
            assert v.decision == decoupled_identifiability(net).decision


def rerouting_nets():
    """Two graphs whose second augmenting path undoes a node's own unit, excited (sources) to measured (targets).

    The first search takes 0 -> 1 -> 2 -> 3.  The second enters 2 from 6,
    backs over 1 -> 2 and node 1's own unit, and leaves 0 by 7 to 11, which
    frees node 1.  In the second graph a third search from 12 passes
    through the freed node 1 on its way to 22; had node 1 kept its old
    unit, that search would find no path and the flow would read 2.
    """
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 2), (0, 7), (7, 8), (8, 9), (9, 10), (10, 11)]
    yield NetworkModel(12, [Edge(u, v, known=True) for u, v in edges], [0, 4], [3, 11])
    through_1 = [12, 13, 14, 15, 1, 16, 17, 18, 19, 20, 21, 22]
    edges += zip(through_1, through_1[1:])
    yield NetworkModel(23, [Edge(u, v, known=True) for u, v in edges], [0, 4, 12], [3, 11, 22])


class TestStructuralRankBound:
    def test_disjoint_walks_are_the_sampled_rank_of_the_closed_loop(self):
        """van der Woude: the generic rank of T[X, Y] is the largest number of vertex-disjoint walks from Y to X.

        One sample reaches the generic rank except with probability about n / 2^61.
        """
        rng = random.Random(17)
        ranks = set()
        for net in general_square_corpus(60, start_seed=700):
            T = closed_loop(net, random_field_values(rng, len(net.edges)))
            succ = _Structure(net).succ
            for _ in range(5):
                xs = rng.sample(range(net.n), rng.randint(1, net.n))
                ys = rng.sample(range(net.n), rng.randint(1, net.n))
                paths = _disjoint_paths(succ, ys, xs)
                assert paths == rank_field([[T[x][y] for y in ys] for x in xs]), (net, xs, ys)
                ranks.add(paths)
        assert {0, 1, 2, 3} <= ranks
        for net in rerouting_nets():
            T = closed_loop(net, random_field_values(rng, len(net.edges)))
            paths = _disjoint_paths(_Structure(net).succ, net.excited, net.measured)
            assert paths == rank_field([[T[x][y] for y in net.excited] for x in net.measured]) == net.n_excited, net

    def test_handmade_bounds(self):
        assert _Structure(fan_net()).rank_bound == {"bound": 2, "by": "heads"}
        assert _Structure(unreachable_net()).rank_bound == {
            "bound": 0, "by": "heads", "node": 3, "unknown_edges": 1, "rank": 0,
        }
        # a third unknown edge into the one measured node: three columns, two rows
        net = NetworkModel(4, [Edge(0, 3, known=False), Edge(1, 3, known=False), Edge(2, 3, known=False)], [0, 1], [3])
        assert _Structure(net).rank_bound == {"bound": 2, "by": "heads", "node": 4, "unknown_edges": 3, "rank": 2}
        # heads, tails and the three rows all allow the three columns; the flow through the 2-node cut allows two
        assert [side["bound"] for side in rank_bound_candidates(cut_net())] == [3, 3, 2]
        assert _Structure(cut_net()).rank_bound == {
            "bound": 2, "by": "product", "heads_to_measured": 1, "excited_to_tails": 2,
        }

    def test_equals_the_flow_per_group_reference(self):
        """The reach shortcut for one-edge groups and the live heads and tails of the product change no bound.

        Over criterion 4's and criterion 6's corpora and 1500 draws of the
        benchmark's cyclic pool, against two flows for every group.
        """
        inputs = perfbench_inputs()
        nets = list(general_square_corpus(500, start_seed=4000))
        nets += separable_square_corpus(100, acyclic=False, start_seed=6000)
        nets += [inputs.cyclic_net(1, i) for i in range(1500)]
        refuted = Counter()
        for net in nets:
            bound = _Structure(net).rank_bound
            assert bound == rank_bound_reference(net), net
            if bound["bound"] < net.m_unknown:
                refuted[bound["by"]] += 1
        assert all(refuted[by] >= 40 for by in ("heads", "tails", "product")), refuted
