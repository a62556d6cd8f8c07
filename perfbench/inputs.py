"""Seeded network draws owned by the benchmark.

Every draw comes from its own ``random.Random`` seeded with a string built
from the workload, the run seed and the draw index, so draw ``i`` is the
same whether a run consumes ten draws or ten thousand, and no change to
``netident.generate`` can move the workloads.  Draws follow a fixed rule;
none is rejected for its runtime or its verdict.

Size parameters sweep their range along a golden-ratio sequence whose
offset comes from the seed: every seed covers the whole range evenly, so
runs with different seeds measure the same mix of shapes on different
graphs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from netident.netmodel import Edge, NetworkModel, network_to_dict

# Steps of the additive low-discrepancy sequences: the golden ratio for one
# coordinate, powers of the plastic number's inverse for two (Roberts' R2).
GOLDEN = 0.6180339887498949
PLASTIC = (0.7548776662466927, 0.5698402909980532)

# Per size: the range each parameter sweeps as the draw's position t goes from 0 to 1.
SIZES = {
    "full": {
        # deep (many nodes, few ports) at t=0 to wide (fewer nodes, many ports) at t=1
        "check": {"nodes": (40, 24), "ports": (4, 10), "unknowns": (10, 24)},
        "walks-acyclic": {"layers": 2, "width": 3, "in_degree": 2},
        "walks-cyclic": {"nodes": (5, 8)},
        "cli": {"layers": 1, "width": 2, "in_degree": 2},
    },
    "smoke": {
        "check": {"nodes": (12, 8), "ports": (2, 3), "unknowns": (3, 6)},
        "walks-acyclic": {"layers": 1, "width": 2, "in_degree": 1},
        "walks-cyclic": {"nodes": (4, 5)},
        "cli": {"layers": 1, "width": 2, "in_degree": 1},
    },
}

# (excited, measured) port counts of the cyclic draws, taken in turn by draw index.
CYCLIC_PORTS = ((1, 1), (1, 2), (2, 1))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"netident-bench/{workload}/{seed}/{index}")


def sweep(workload: str, seed: int, index: int) -> float:
    """Position in [0, 1) of draw ``index`` along the workload's size range."""
    offset = random.Random(f"netident-bench/{workload}/{seed}/offset").random()
    return (offset + index * GOLDEN) % 1.0


def sweep2(workload: str, seed: int, index: int) -> tuple[float, float]:
    """Like ``sweep`` for two independent size parameters: covers the unit square evenly."""
    offsets = random.Random(f"netident-bench/{workload}/{seed}/offset2")
    return tuple((offsets.random() + index * step) % 1.0 for step in PLASTIC)


def _lerp(bounds: tuple[int, int], t: float) -> int:
    lo, hi = bounds
    return int(round(lo + t * (hi - lo)))


def _network(n: int, known: set, unknown: set, excited, measured) -> NetworkModel:
    """Known edges then unknown edges, each sorted, as ``netident gen`` orders them."""
    edges = [Edge(u, v, known=True) for u, v in sorted(known)]
    edges += [Edge(u, v, known=False) for u, v in sorted(unknown)]
    return NetworkModel(n=n, edges=edges, excited=sorted(excited), measured=sorted(measured))


def _relabel(rng: random.Random, n: int, known: set, unknown: set, excited, measured) -> NetworkModel:
    """Shuffle node labels so block membership cannot be read off the indices."""
    perm = list(range(n))
    rng.shuffle(perm)
    known = {(perm[u], perm[v]) for u, v in known}
    unknown = {(perm[u], perm[v]) for u, v in unknown}
    return _network(n, known, unknown, [perm[x] for x in excited], [perm[x] for x in measured])


def check_net(seed: int, index: int, size: str = "full") -> NetworkModel:
    """A non-separable cyclic network for ``netident check``.

    Known edges: a Hamiltonian cycle through all nodes plus 2n random
    chords.  The cycle makes the known graph strongly connected, so one
    known component holds the ports and both ends of every unknown edge:
    the network is cyclic and never separable.

    Unknown edges leave a pool of k tail nodes.  A sensitivity column is
    the tensor of a tail factor and a head factor, so more than ``ports``
    unknown edges on one tail are linearly dependent.  On odd draws the
    pool is one node short of ceil(m / ports), which forces a
    not-identifiable verdict; on even draws it is every node.
    """
    spec = SIZES[size]["check"]
    t = sweep("check", seed, index)
    rng = _rng("check", seed, index)
    n = _lerp(spec["nodes"], t)
    ports = _lerp(spec["ports"], t)
    m = _lerp(spec["unknowns"], t)
    order = list(range(n))
    rng.shuffle(order)
    known = {(order[k], order[(k + 1) % n]) for k in range(n)}
    while len(known) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            known.add((u, v))
    k = max(1, math.ceil(m / ports) - 1) if index % 2 else n
    while True:
        tails = rng.sample(range(n), k)
        pairs = [(u, v) for u in tails for v in range(n) if u != v and (u, v) not in known]
        if len(pairs) >= m:
            break
        k += 1
    unknown = set(rng.sample(pairs, m))
    return _network(n, known, unknown, rng.sample(range(n), ports), rng.sample(range(n), ports))


def acyclic_net(seed: int, index: int, size: str = "full", workload: str = "walks-acyclic") -> NetworkModel:
    """A separable square 2x2 network whose known blocks are layered, dense and acyclic.

    The excited block is the two excitations followed by ``layers`` layers
    of ``width`` nodes; the measured block mirrors it and ends in the two
    measurements.  Each known edge joins adjacent layers: every node of a
    lower excited layer has ``in_degree`` random in-edges from the layer
    above, and every node of an upper measured layer ``in_degree`` random
    out-edges to the layer below.  The fixed degree keeps the walk count,
    and so the cost, nearly the same from draw to draw.  The four unknown
    edges join random nodes of the two innermost layers.
    """
    spec = SIZES[size][workload]
    rng = _rng(workload, seed, index)
    width, degree = spec["width"], spec["in_degree"]
    sizes = [2] + [width] * (2 * spec["layers"]) + [2]
    layers, start = [], 0
    for s in sizes:
        layers.append(list(range(start, start + s)))
        start += s
    half = len(layers) // 2
    known: set = set()
    for upper, lower in zip(layers[:half], layers[1:half]):
        for v in lower:
            known |= {(u, v) for u in rng.sample(upper, min(degree, len(upper)))}
    for upper, lower in zip(layers[half:], layers[half + 1 :]):
        for u in upper:
            known |= {(u, v) for v in rng.sample(lower, min(degree, len(lower)))}
    pairs = [(u, v) for u in layers[half - 1] for v in layers[half]]
    unknown = set(rng.sample(pairs, 4))
    return _relabel(rng, start, known, unknown, layers[0], layers[-1])


def cyclic_net(seed: int, index: int, size: str = "full") -> NetworkModel:
    """A separable square network with cyclic known blocks, n in the acceptance corpus's range.

    Ports cycle through 1x1, 1x2 and 2x1 with the draw index (one unknown
    edge per excitation-measurement pair), and the chord counts of the two
    blocks through (0, 0), (0, 1), (1, 0), (1, 1) every third draw.  Each
    known block is a ring through all its nodes, so it is cyclic, plus its
    chords.  The node count and the split point between the blocks sweep
    their ranges together.
    """
    spec = SIZES[size]["walks-cyclic"]
    t, split = sweep2("walks-cyclic", seed, index)
    rng = _rng("walks-cyclic", seed, index)
    n = _lerp(spec["nodes"], t)
    n_exc, n_meas = CYCLIC_PORTS[index % len(CYCLIC_PORTS)]
    chords = divmod(index // len(CYCLIC_PORTS) % 4, 2)
    b_size = 2 + int(split * (n - 3))
    blocks = (list(range(b_size)), list(range(b_size, n)))
    known: set = set()
    for block, count in zip(blocks, chords):
        ring = block[:]
        rng.shuffle(ring)
        known |= {(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))}
        free = [(u, v) for u in block for v in block if u != v and (u, v) not in known]
        known |= set(rng.sample(free, min(len(free), count)))
    pairs = [(u, v) for u in blocks[0] for v in blocks[1]]
    unknown = set(rng.sample(pairs, n_exc * n_meas))
    return _relabel(rng, n, known, unknown, rng.sample(blocks[0], n_exc), rng.sample(blocks[1], n_meas))


def relabeled(net: NetworkModel, workload: str, seed: int, index: int, rnd: int) -> NetworkModel:
    """Draw ``index`` with its node labels shuffled for pass ``rnd`` of the timed loop over the pool.

    The edge list keeps its order and each port its position, so the
    network is isomorphic to the draw, with the same unknown-edge columns
    and the same verdict, and costs the same to decide; but it is not the
    same value, so a cache keyed on the network cannot answer a repeat.
    """
    perm = list(range(net.n))
    random.Random(f"netident-bench/{workload}/{seed}/{index}/pass{rnd}").shuffle(perm)
    edges = [Edge(perm[e.src], perm[e.dst], known=e.known, value=e.value) for e in net.edges]
    return NetworkModel(n=net.n, edges=edges, excited=[perm[x] for x in net.excited], measured=[perm[x] for x in net.measured])


def digest(nets) -> str:
    """SHA-256 over the canonical JSON of the networks, in order: detects input drift."""
    h = hashlib.sha256()
    for net in nets:
        h.update(json.dumps(network_to_dict(net), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
