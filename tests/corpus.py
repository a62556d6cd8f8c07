"""Shared fixture networks and seeded corpora for the test suite."""

from __future__ import annotations

from netident import Edge, GenerationError, NetworkModel, random_network

# (excited, measured) combinations with excited * measured <= 4
SQUARE_COMBOS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)]


def minimal_net() -> NetworkModel:
    """One unknown edge from the excited node to the measured node."""
    return NetworkModel(2, [Edge(0, 1, known=False)], [0], [1])


def unreachable_net() -> NetworkModel:
    """The unknown edge's tail cannot be reached from the excitation."""
    return NetworkModel(3, [Edge(1, 2, known=False)], [0], [2])


def chain_net() -> NetworkModel:
    """known 0->1 followed by unknown 1->2; one walk, one monomial."""
    return NetworkModel(3, [Edge(0, 1, known=True), Edge(1, 2, known=False)], [0], [2])


def fan_net() -> NetworkModel:
    """Two excitations feed two relays over known edges; two unknown edges reach the measurement.

    The sensitivity matrix is [[g1, g2], [g3, g4]], so the walk counts must
    come out as +1 and -1 on the two crossing monomials.
    """
    return NetworkModel(
        5,
        [
            Edge(0, 2, known=True),
            Edge(0, 3, known=True),
            Edge(1, 2, known=True),
            Edge(1, 3, known=True),
            Edge(2, 4, known=False),
            Edge(3, 4, known=False),
        ],
        [0, 1],
        [4],
    )


def cut_net() -> NetworkModel:
    """Three excitations reach three unknown-edge tails only through a 2-node cut; one measurement.

    The unknown edges have distinct heads and tails and every head reaches
    the measurement, so each head or tail alone spans one column, and there
    are three rows.  All three columns lie in the span of T[C, heads]
    times a rank-2 T[tails, B], so the sensitivity matrix has rank 2 < 3.
    """
    b, cut, tails, heads, c = (0, 1, 2), (3, 4), (5, 6, 7), (8, 9, 10), 11
    known = [(u, v) for u in b for v in cut] + [(u, v) for u in cut for v in tails] + [(h, c) for h in heads]
    return NetworkModel(
        12,
        [Edge(u, v, known=True) for u, v in known] + [Edge(t, h, known=False) for t, h in zip(tails, heads)],
        list(b),
        [c],
    )


def bipartite_net() -> NetworkModel:
    """All four unknown edges cross directly; the sensitivity matrix is the identity."""
    return NetworkModel(
        4,
        [
            Edge(0, 2, known=False),
            Edge(0, 3, known=False),
            Edge(1, 2, known=False),
            Edge(1, 3, known=False),
        ],
        [0, 1],
        [2, 3],
    )


def cyclic9_net() -> NetworkModel:
    """Cyclic excited block where every degree-4 monomial cancels but degree 5 survives.

    Both excitations reach both unknown-edge tails through a shared hub (a
    crossing pair whose two pairings cancel), a 2-cycle at the hub makes the
    block cyclic, and one excitation has a private length-3 route to one
    tail that nothing cancels.  Degree bound 4 is inconclusive; bound 5 is
    identifiable.
    """
    return NetworkModel(
        9,
        [
            Edge(0, 2, known=True),
            Edge(1, 2, known=True),
            Edge(2, 6, known=True),
            Edge(2, 7, known=True),
            Edge(2, 3, known=True),
            Edge(3, 2, known=True),
            Edge(0, 4, known=True),
            Edge(4, 5, known=True),
            Edge(5, 6, known=True),
            Edge(6, 8, known=False),
            Edge(7, 8, known=False),
        ],
        [0, 1],
        [8],
    )


def separable_square_corpus(count: int, *, acyclic: bool, start_seed: int = 0, max_nodes: int = 8):
    """Yield ``count`` valid separable networks with one unknown per pair."""
    made = 0
    seed = start_seed
    while made < count:
        e, m = SQUARE_COMBOS[seed % len(SQUARE_COMBOS)]
        try:
            net = random_network(
                nodes=5 + seed % (max_nodes - 4),
                unknowns=e * m,
                excited=e,
                measured=m,
                known_density=0.25 + 0.05 * (seed % 5),
                separable=True,
                acyclic=acyclic,
                seed=seed,
            )
        except GenerationError:
            seed += 1
            continue
        seed += 1
        made += 1
        yield net


def general_square_corpus(count: int, *, start_seed: int = 0, max_nodes: int = 7):
    """Yield ``count`` square networks of arbitrary topology, mixed cyclic and acyclic."""
    made = 0
    seed = start_seed
    while made < count:
        e, m = SQUARE_COMBOS[seed % len(SQUARE_COMBOS)]
        try:
            net = random_network(
                nodes=4 + seed % (max_nodes - 3),
                unknowns=e * m,
                excited=e,
                measured=m,
                known_density=0.2 + 0.05 * (seed % 6),
                separable=False,
                acyclic=(seed % 3 == 0),
                seed=seed,
            )
        except GenerationError:
            seed += 1
            continue
        seed += 1
        made += 1
        yield net


def open_criterion_4_net() -> NetworkModel:
    """Net 20 of acceptance criterion 4's corpus: n = 4, m = 3, local rank 1 below the structural bound 2.

    The decoupled verdict on it is the one that ranks the 2n-node lift.
    """
    return list(general_square_corpus(21, start_seed=4000))[20]
