"""Seeded random network instances for experiments and property tests.

All draws go through one numpy generator, imported and seeded per call, so
a (flags, seed) pair always yields the same network, edge order included.
"""

from __future__ import annotations

from .netmodel import MAX_NODES, Edge, NetworkModel

__all__ = ["GenerationError", "random_network"]


class GenerationError(ValueError):
    """The requested flag combination admits no network."""


def _block_known_edges(nodes: list[int], density: float, acyclic: bool, rng) -> list[Edge]:
    """Random known edges within one node set; acyclic mode only follows a random order."""
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            if acyclic and pos[u] >= pos[v]:
                continue
            if rng.random() < density:
                edges.append(Edge(u, v, known=True))
    return edges


def random_network(
    *,
    nodes: int,
    unknowns: int,
    excited: int,
    measured: int,
    known_density: float = 0.3,
    separable: bool = False,
    acyclic: bool = False,
    seed: int = 0,
) -> NetworkModel:
    """Draw a valid network honoring the flags; deterministic per seed.

    Separable mode splits the nodes into an excited part and a measured
    part first, keeps known edges inside their part, and places all unknown
    edges across.  Non-separable mode scatters edges anywhere.  Raises
    GenerationError when the counts cannot fit.
    """
    if nodes < 1:
        raise GenerationError("need at least one node")
    if nodes > MAX_NODES:
        raise GenerationError(f"at most {MAX_NODES} nodes, got {nodes}")
    if unknowns < 1:
        raise GenerationError("need at least one unknown edge")
    if not (1 <= excited <= nodes and 1 <= measured <= nodes):
        raise GenerationError("excited and measured counts must be between 1 and the node count")
    if not (0.0 <= known_density <= 1.0):
        raise GenerationError("known density must lie in [0, 1]")

    import numpy as np

    rng = np.random.default_rng(seed)

    if separable:
        if excited + measured > nodes:
            raise GenerationError("separable split needs excited + measured <= nodes")
        sizes = [
            b for b in range(excited, nodes - measured + 1) if unknowns <= b * (nodes - b)
        ]
        if not sizes:
            raise GenerationError("no excited/measured split can hold that many unknown edges")
        b_size = int(rng.choice(sizes))
        perm = [int(v) for v in rng.permutation(nodes)]
        b_nodes = sorted(perm[:b_size])
        c_nodes = sorted(perm[b_size:])
        known = _block_known_edges(b_nodes, known_density, acyclic, rng)
        known += _block_known_edges(c_nodes, known_density, acyclic, rng)
        cross = [(u, v) for u in b_nodes for v in c_nodes]
        picks = rng.choice(len(cross), size=unknowns, replace=False)
        unknown_edges = [Edge(*cross[int(i)], known=False) for i in sorted(picks)]
        excited_nodes = sorted(int(v) for v in rng.choice(b_nodes, size=excited, replace=False))
        measured_nodes = sorted(int(v) for v in rng.choice(c_nodes, size=measured, replace=False))
    else:
        if acyclic:
            order = [int(v) for v in rng.permutation(nodes)]
            pos = {v: i for i, v in enumerate(order)}
            pool = [(u, v) for u in range(nodes) for v in range(nodes) if u != v and pos[u] < pos[v]]
        else:
            pool = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
        if unknowns > len(pool):
            raise GenerationError("more unknown edges than node pairs")
        picks = set(int(i) for i in rng.choice(len(pool), size=unknowns, replace=False))
        unknown_edges = [Edge(*pool[i], known=False) for i in sorted(picks)]
        known = [
            Edge(u, v, known=True)
            for i, (u, v) in enumerate(pool)
            if i not in picks and rng.random() < known_density
        ]
        excited_nodes = sorted(int(v) for v in rng.choice(nodes, size=excited, replace=False))
        measured_nodes = sorted(int(v) for v in rng.choice(nodes, size=measured, replace=False))

    known.sort(key=lambda e: (e.src, e.dst))
    unknown_edges.sort(key=lambda e: (e.src, e.dst))
    return NetworkModel(
        n=nodes,
        edges=known + unknown_edges,
        excited=excited_nodes,
        measured=measured_nodes,
    )
