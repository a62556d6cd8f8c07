"""Seeded instance generation honors its flags."""

import pytest

from netident import MAX_NODES, GenerationError, is_separable, random_network


def has_cycle(net) -> bool:
    adj = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append(e.dst)
    state = {}

    def visit(u):
        state[u] = 1
        for v in adj.get(u, ()):
            if state.get(v) == 1 or (state.get(v) is None and visit(v)):
                return True
        state[u] = 2
        return False

    return any(state.get(u) is None and visit(u) for u in range(net.n))


class TestRandomNetwork:
    def test_counts_honored(self):
        net = random_network(nodes=6, unknowns=3, excited=2, measured=2, seed=5)
        assert net.n == 6
        assert net.m_unknown == 3
        assert net.n_excited == 2 and net.n_measured == 2

    def test_deterministic_per_seed(self):
        kw = dict(nodes=7, unknowns=4, excited=2, measured=2, known_density=0.4)
        assert random_network(**kw, seed=9) == random_network(**kw, seed=9)
        assert random_network(**kw, seed=9) != random_network(**kw, seed=10)

    def test_separable_flag(self):
        for seed in range(20):
            net = random_network(
                nodes=8, unknowns=4, excited=2, measured=2, separable=True, seed=seed
            )
            assert is_separable(net)
            assert net.is_square

    def test_acyclic_flag(self):
        for seed in range(20):
            net = random_network(nodes=7, unknowns=3, excited=1, measured=3, acyclic=True, seed=seed)
            assert not has_cycle(net)

    def test_separable_acyclic_combined(self):
        for seed in range(10):
            net = random_network(
                nodes=8, unknowns=2, excited=1, measured=2, separable=True, acyclic=True, seed=seed
            )
            assert is_separable(net) and not has_cycle(net)

    def test_edges_sorted_known_first(self):
        net = random_network(nodes=6, unknowns=3, excited=2, measured=2, known_density=0.8, seed=3)
        flags = [e.known for e in net.edges]
        assert flags == sorted(flags, reverse=True)
        known = [(e.src, e.dst) for e in net.edges if e.known]
        assert known == sorted(known)

    def test_density_extremes(self):
        empty = random_network(nodes=5, unknowns=2, excited=1, measured=2, known_density=0.0, seed=1)
        assert all(not e.known for e in empty.edges)
        full = random_network(nodes=5, unknowns=2, excited=1, measured=2, known_density=1.0, seed=1)
        assert len(full.known_edges) == 5 * 4 - 2

    def test_infeasible_requests_raise(self):
        with pytest.raises(GenerationError):
            random_network(nodes=2, unknowns=5, excited=1, measured=1)
        with pytest.raises(GenerationError):
            random_network(nodes=3, unknowns=1, excited=4, measured=1)
        with pytest.raises(GenerationError):
            random_network(nodes=3, unknowns=1, excited=2, measured=2, separable=True)
        with pytest.raises(GenerationError):
            random_network(nodes=4, unknowns=5, excited=2, measured=2, separable=True)
        with pytest.raises(GenerationError):
            random_network(nodes=4, unknowns=1, excited=1, measured=1, known_density=1.5)

    def test_node_count_above_the_ceiling(self):
        """Refused before any node-pair list is built, like a file above the ceiling at load."""
        with pytest.raises(GenerationError, match=str(MAX_NODES)):
            random_network(nodes=MAX_NODES + 1, unknowns=1, excited=1, measured=1, known_density=0.0)
