"""Verdict semantics for the three identifiability notions: two rank routes, and the walk route for global-separable."""

import random

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
from netident.identifiability import _disjoint_paths, _Structure
from netident.numeric import random_field_values, rank_field

from helpers import closed_loop, sample_sensitivity

from corpus import (
    chain_net,
    fan_net,
    general_square_corpus,
    minimal_net,
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
        """The decoupled notion is necessary for the local one, never stricter."""
        nets = list(general_square_corpus(25, start_seed=300))
        nets += [minimal_net(), chain_net(), fan_net(), unreachable_net()]
        for net in nets:
            local = local_identifiability(net).decision
            dec = decoupled_identifiability(net).decision
            if local == IDENTIFIABLE:
                assert dec == IDENTIFIABLE, f"necessity broken on {net}"

    def test_two_cycle_separates_the_notions(self):
        """Both directions of a 2-cycle unknown: locally identifiable, decoupled not.

        With a single shared evaluation the two sensitivity columns stay
        independent, but with independent factors the 1x2 matrix cannot have
        rank 2.
        """
        net = NetworkModel(2, [Edge(0, 1, known=False), Edge(1, 0, known=False)], [0], [1])
        assert local_identifiability(net).m_unknown == 2
        assert decoupled_identifiability(net).decision == NOT_IDENTIFIABLE


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


def decoupling_nets() -> list[NetworkModel]:
    return handmade_nets() + list(general_square_corpus(25, start_seed=600))


def assert_decoupled_matches_lift_walks(net: NetworkModel) -> None:
    walks = necessary_condition_any_topology(net).decision
    assert walks == decoupled_identifiability(net).decision, f"walk verdict {walks} on the lift of {net}"


class TestDecouplingEquivalence:
    def test_decoupled_sample_is_the_local_sample_of_the_lift(self):
        """At one seed the decoupled-mode K of a net equals the local K of its lift, entry by entry.

        So a rank verdict on the lift at the same seed repeats the decoupled
        one, which is why acceptance criterion 5 ranks the lift at a
        disjoint seed.
        """
        for net in decoupling_nets():
            for seed in (0, DISJOINT_SEED):
                direct = sample_sensitivity(net, random.Random(seed), True)
                assert direct == sample_sensitivity(decouple(net), random.Random(seed), False), net

    def test_handmade_nets(self):
        """The decoupled rank decision equals the walk verdict on the lift; an inconclusive one fails."""
        for net in handmade_nets():
            assert_decoupled_matches_lift_walks(net)

    def test_random_corpus(self):
        for net in general_square_corpus(25, start_seed=600):
            assert_decoupled_matches_lift_walks(net)

    def test_decoupled_form_is_always_separable_and_square(self):
        """The lift is decided by its rank at a disjoint seed: its walk search on the third net runs past 15 s."""
        for net in general_square_corpus(15, start_seed=500):
            d = decouple(net)
            assert d.is_square and is_separable(d)
            v = local_identifiability(d, seed=DISJOINT_SEED)
            assert v.decision == decoupled_identifiability(net).decision


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

    def test_handmade_bounds(self):
        assert _Structure(fan_net()).rank_bound == {"bound": 2, "by": "heads"}
        assert _Structure(unreachable_net()).rank_bound == {
            "bound": 0, "by": "heads", "node": 3, "unknown_edges": 1, "rank": 0,
        }
        # a third unknown edge into the one measured node: three columns, two rows
        net = NetworkModel(4, [Edge(0, 3, known=False), Edge(1, 3, known=False), Edge(2, 3, known=False)], [0, 1], [3])
        assert _Structure(net).rank_bound == {"bound": 2, "by": "heads", "node": 4, "unknown_edges": 3, "rank": 2}
