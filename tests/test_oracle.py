"""Symbolic truncated determinant as ground truth for the walk counts."""

import random

import pytest

from netident import (
    Edge,
    NetworkModel,
    PRIME,
    Poly,
    TooLargeError,
    closed_loop,
    coefficient,
    exhaustive_degree_bound,
    monomial_degree,
    network_matrix,
    random_field_values,
    repetition_table,
    sensitivity_matrix,
    separate,
    symbolic_closed_loop,
    symbolic_det,
    terms_sorted,
)

from corpus import (
    chain_net,
    cyclic9_net,
    fan_net,
    minimal_net,
    separable_square_corpus,
    unreachable_net,
)
from helpers import det_field, eval_poly
from test_combinatorial import cancel_net


def poly_x(i: int) -> Poly:
    return Poly.variable(i)


class TestPoly:
    def test_difference_of_squares(self):
        one = Poly.constant(1)
        p = one.add(poly_x(0)).mul(one.add(poly_x(0).scaled(-1)))
        assert p == one.add(Poly({frozenset(((0, 2),)): -1}))

    def test_mul_truncation_drops_high_degree(self):
        one = Poly.constant(1)
        p = one.add(poly_x(0)).mul(one.add(poly_x(0)), max_degree=1)
        assert p == Poly({frozenset(): 1, frozenset(((0, 1),)): 2})

    def test_cancellation_reaches_zero(self):
        p = poly_x(1).mul(poly_x(2))
        assert p.add(p.scaled(-1)).is_zero()

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Poly.constant(1))

    def test_zero_coefficients_are_dropped(self):
        assert Poly({frozenset(): 0}).is_zero()
        assert coefficient(Poly.constant(3), ()) == 3
        assert coefficient(Poly.constant(3), ((0, 1),)) == 0


class TestSymbolicClosedLoop:
    def test_chain_excited_block(self):
        net = chain_net()
        t = symbolic_closed_loop(net, separate(net), "B", 3)
        assert t[0][0] == Poly.constant(1)
        assert t[1][0] == poly_x(0)
        assert t[2][0].is_zero()

    def test_chain_measured_block_is_identity(self):
        net = chain_net()
        t = symbolic_closed_loop(net, separate(net), "C", 3)
        for i in range(net.n):
            for j in range(net.n):
                assert t[i][j] == (Poly.constant(1) if i == j else Poly.zero())

    def test_acyclic_block_saturates(self):
        net = fan_net()
        blocks = separate(net)
        short = symbolic_closed_loop(net, blocks, "B", 1)
        long = symbolic_closed_loop(net, blocks, "B", 50)
        for i in range(net.n):
            for j in range(net.n):
                assert short[i][j] == long[i][j]

    def test_cyclic_block_counts_walks_per_length(self):
        """The hub 2-cycle adds a longer route from node 1 to node 7 at every even extra length."""
        net = cyclic9_net()
        blocks = separate(net)
        t3 = symbolic_closed_loop(net, blocks, "B", 3)
        entry = t3[6][0]
        assert coefficient(entry, ((0, 1), (2, 1))) == 1
        assert coefficient(entry, ((6, 1), (7, 1), (8, 1))) == 1
        assert coefficient(entry, ((0, 1), (2, 1), (4, 1), (5, 1))) == 0
        t5 = symbolic_closed_loop(net, blocks, "B", 5)
        assert coefficient(t5[6][0], ((0, 1), (2, 1), (4, 1), (5, 1))) == 1

    def test_degree_never_exceeds_length_bound(self):
        net = cyclic9_net()
        t = symbolic_closed_loop(net, separate(net), "B", 4)
        for row in t:
            for p in row:
                assert all(monomial_degree(mu) <= 4 for mu, _ in terms_sorted(p))

    def test_rejects_unknown_side(self):
        net = chain_net()
        with pytest.raises(ValueError):
            symbolic_closed_loop(net, separate(net), "X", 2)


class TestSymbolicDet:
    def test_minimal_is_one(self):
        assert symbolic_det(minimal_net(), 2) == Poly.constant(1)

    def test_chain_is_the_known_edge(self):
        assert terms_sorted(symbolic_det(chain_net(), 3)) == [(((0, 1),), 1)]

    def test_fan_is_a_two_by_two_determinant(self):
        det = symbolic_det(fan_net(), 4)
        assert coefficient(det, ((0, 1), (3, 1))) == 1
        assert coefficient(det, ((1, 1), (2, 1))) == -1
        assert len(det.terms) == 2

    def test_unreachable_is_zero(self):
        assert symbolic_det(unreachable_net(), 4).is_zero()

    def test_cancellation_is_zero(self):
        assert symbolic_det(cancel_net(), 8).is_zero()

    def test_cyclic_degree_threshold(self):
        assert symbolic_det(cyclic9_net(), 4).is_zero()
        assert not symbolic_det(cyclic9_net(), 5).is_zero()

    def test_size_guard(self):
        edges = [Edge(i, 7, known=False) for i in range(7)]
        net = NetworkModel(8, edges, list(range(7)), [7])
        with pytest.raises(TooLargeError):
            symbolic_det(net, 2)


class TestAgreementWithWalkCounts:
    def test_every_table_entry_matches_a_coefficient(self):
        """Signed walk counts and truncated determinant coefficients are the same numbers."""
        for net in separable_square_corpus(15, acyclic=False, start_seed=1200):
            table = repetition_table(net, 5)
            det = symbolic_det(net, 5)
            for mu, r in table.entries.items():
                assert coefficient(det, mu) == r, f"{mu} on {net}"
            for mu, c in terms_sorted(det):
                assert table.entries.get(mu, 0) == c, f"{mu} on {net}"

    def test_exact_determinant_evaluates_like_the_numeric_one(self):
        """On acyclic nets the truncated polynomial is the whole determinant."""
        rng = random.Random(17)
        for net in separable_square_corpus(10, acyclic=True, start_seed=1300):
            bound = exhaustive_degree_bound(net)
            det = symbolic_det(net, bound)
            edge_values = random_field_values(net, rng)
            T = closed_loop(network_matrix(net, edge_values))
            K = sensitivity_matrix(net, T, T)
            values = {i: v for i, (e, v) in enumerate(zip(net.edges, edge_values)) if e.known}
            assert det_field(K) == eval_poly(det, values, PRIME)
