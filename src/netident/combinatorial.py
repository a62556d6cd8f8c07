"""Walk enumeration and signed monomial counting for separable networks.

For a separable network with one unknown edge per (excitation, measurement)
pair, the determinant of the sensitivity matrix expands as a signed sum
over collections of excitation-to-measurement walks: one walk through each
unknown edge, no two walks sharing the same (excitation, measurement)
pair.  Each collection contributes the parity of its pairing to the
repetition count of its monomial, the multiset of known edges it
traverses (the unknown edges index the collection and are not factors).
The network is identifiable exactly when some monomial keeps a nonzero
count after all cancellations.

Walks may repeat edges, so cyclic known blocks admit walks of every
length.  Enumeration is therefore bounded by total monomial degree; the
table is exact for every degree it covers, and the verdict is final only
when the enumeration is provably complete (acyclic blocks, or an unknown
edge no walk can reach at all).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .identifiability import (
    DECOUPLED_GENERIC,
    GLOBAL_SEPARABLE,
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    NoUnknownEdgesError,
    Verdict,
    _structural_zero_columns,
)
from .netmodel import (
    Edge,
    NetworkModel,
    NotSquareError,
    SeparableBlocks,
    decouple,
    separate,
    validate,
)

__all__ = [
    "Monomial",
    "monomial_of",
    "monomial_degree",
    "format_monomial",
    "Walk",
    "walk_nodes",
    "format_walk",
    "enumerate_walks",
    "RepetitionTable",
    "repetition_table",
    "exhaustive_degree_bound",
    "verdict_from_table",
    "combinatorial_verdict",
    "necessary_condition_any_topology",
]

# Canonical monomial form: ((edge index, multiplicity), ...) sorted by edge
# index, multiplicities >= 1.  Edge indices refer to net.edges order.
Monomial = tuple[tuple[int, int], ...]


def monomial_of(edge_indices: Iterable[int]) -> Monomial:
    return tuple(sorted(Counter(edge_indices).items()))


def monomial_degree(mu: Iterable[tuple[int, int]]) -> int:
    """Total degree of (variable, power) pairs: a Monomial, or an oracle polynomial key."""
    return sum(mult for _, mult in mu)


def format_monomial(net: NetworkModel, mu: Monomial) -> str:
    if not mu:
        return "1"
    parts = []
    for idx, mult in mu:
        e = net.edges[idx]
        factor = f"g({e.src + 1}->{e.dst + 1})"
        parts.append(factor if mult == 1 else f"{factor}^{mult}")
    return "*".join(parts)


@dataclass(frozen=True)
class Walk:
    """One excitation-to-measurement walk through exactly one unknown edge.

    ``edges`` holds indices into net.edges, pivot included at position
    ``pivot_pos``; everything before it lies in the excited known block,
    everything after in the measured known block.  ``degree`` counts the
    known edges only.
    """

    edges: tuple[int, ...]
    start: int
    end: int
    pivot: int
    pivot_pos: int

    @property
    def degree(self) -> int:
        return len(self.edges) - 1

    def known_edge_indices(self) -> tuple[int, ...]:
        return self.edges[: self.pivot_pos] + self.edges[self.pivot_pos + 1 :]


def walk_nodes(net: NetworkModel, walk: Walk) -> list[int]:
    nodes = [walk.start]
    for idx in walk.edges:
        nodes.append(net.edges[idx].dst)
    return nodes


def format_walk(net: NetworkModel, walk: Walk) -> str:
    """1-based node sequence; the unknown edge is drawn as '=>'."""
    nodes = walk_nodes(net, walk)
    out = [str(nodes[0] + 1)]
    for pos, node in enumerate(nodes[1:]):
        out.append("=>" if pos == walk.pivot_pos else "->")
        out.append(str(node + 1))
    return " ".join(out)


def _parity(rows: Sequence[int]) -> int:
    inversions = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] > rows[j]:
                inversions += 1
    return 1 if inversions % 2 == 0 else -1


def _adjacency(net: NetworkModel, edges: Iterable[Edge]) -> dict[int, list[tuple[int, int]]]:
    idx_of = {e: i for i, e in enumerate(net.edges)}
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        adj.setdefault(e.src, []).append((idx_of[e], e.dst))
    for lst in adj.values():
        lst.sort()
    return adj


def _walks_between(
    adj: dict[int, list[tuple[int, int]]], start: int, goal: int, bound: int
) -> list[tuple[int, ...]]:
    """All edge-index sequences from start to goal of length <= bound; repeats allowed."""
    out: list[tuple[int, ...]] = []
    path: list[int] = []

    def dfs(node: int, remaining: int) -> None:
        if node == goal:
            out.append(tuple(path))
        if remaining <= 0:
            return
        for eidx, nxt in adj.get(node, ()):
            path.append(eidx)
            dfs(nxt, remaining - 1)
            path.pop()

    dfs(start, bound)
    return out


def enumerate_walks(
    net: NetworkModel,
    blocks: SeparableBlocks,
    pivot: Edge,
    max_degree: int,
) -> list[Walk]:
    """All walks through ``pivot`` with at most ``max_degree`` known edges.

    A walk is an excited-block prefix, the pivot, then a measured-block
    suffix.  The one bound caps prefix and suffix together, so no walk
    above it is ever built.
    """
    idx_of = {e: i for i, e in enumerate(net.edges)}
    pivot_idx = idx_of[pivot]
    adj_b = _adjacency(net, blocks.gb_edges)
    prefixes = {b: sorted(_walks_between(adj_b, b, pivot.src, max_degree), key=len) for b in net.excited}
    shortest = min((len(ps[0]) for ps in prefixes.values() if ps), default=None)
    if shortest is None:
        return []
    adj_c = _adjacency(net, blocks.gc_edges)
    walks: list[Walk] = []
    for c in net.measured:
        for suffix in _walks_between(adj_c, pivot.dst, c, max_degree - shortest):
            room = max_degree - len(suffix)
            for b, ps in prefixes.items():
                for prefix in ps:
                    if len(prefix) > room:
                        break
                    walks.append(
                        Walk(
                            edges=prefix + (pivot_idx,) + suffix,
                            start=b,
                            end=c,
                            pivot=pivot_idx,
                            pivot_pos=len(prefix),
                        )
                    )
    return walks


@dataclass(frozen=True)
class RepetitionTable:
    """Signed collection counts per monomial, up to a total-degree bound.

    Entries that cancelled to zero are retained: a cancellation is exactly
    the phenomenon the count is after.  ``exhaustive`` is true only when
    the enumeration provably covered every collection: both known blocks
    acyclic with the bound at least the longest possible collection degree,
    or some unknown edge admitting no walk at any length (so no collection
    exists at all; those edges are listed in ``infeasible_pivots``).
    ``walks`` keeps the walks the count ran over: per unknown edge, in
    net.edges order, every walk of degree <= ``max_degree``, sorted by
    (degree, edges).  The witness search reuses them.
    """

    entries: dict[Monomial, int]
    max_degree: int
    exhaustive: bool
    walks: tuple[tuple[Walk, ...], ...] = field(repr=False, compare=False)
    infeasible_pivots: tuple[int, ...] = ()

    def sorted_items(self) -> list[tuple[Monomial, int]]:
        return sorted(self.entries.items(), key=lambda kv: (monomial_degree(kv[0]), kv[0]))


def _topo_order(nodes: Iterable[int], edges: list[Edge]) -> list[int] | None:
    """Kahn topological order of the block subgraph, or None when it has a cycle."""
    nodes = list(nodes)
    indeg = {v: 0 for v in nodes}
    fwd: dict[int, list[int]] = {}
    for e in edges:
        fwd.setdefault(e.src, []).append(e.dst)
        indeg[e.dst] += 1
    ready = sorted(v for v in nodes if indeg[v] == 0)
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in fwd.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order if len(order) == len(nodes) else None


def _completeness(net: NetworkModel, blocks: SeparableBlocks) -> tuple[tuple[int, ...], int | None]:
    """(unknown edges with no walk at any bound, max collection degree or None if a block is cyclic)."""
    idx_of = {e: i for i, e in enumerate(net.edges)}
    infeasible = tuple(idx_of[e] for e in _structural_zero_columns(net))

    topo_b = _topo_order(blocks.b_part, list(blocks.gb_edges))
    topo_c = _topo_order(blocks.c_part, list(blocks.gc_edges))
    if topo_b is None or topo_c is None:
        return infeasible, None

    # Longest known-edge walk from an excitation to each node (excited block).
    longest_from = {v: (0 if v in set(net.excited) else None) for v in blocks.b_part}
    adj_b: dict[int, list[int]] = {}
    for e in blocks.gb_edges:
        adj_b.setdefault(e.src, []).append(e.dst)
    for u in topo_b:
        if longest_from[u] is None:
            continue
        for v in adj_b.get(u, ()):
            cand = longest_from[u] + 1
            if longest_from[v] is None or cand > longest_from[v]:
                longest_from[v] = cand

    # Longest known-edge walk from each node to a measurement (measured block).
    longest_to = {v: (0 if v in set(net.measured) else None) for v in blocks.c_part}
    adj_c_rev: dict[int, list[int]] = {}
    for e in blocks.gc_edges:
        adj_c_rev.setdefault(e.dst, []).append(e.src)
    for u in reversed(topo_c):
        if longest_to[u] is None:
            continue
        for v in adj_c_rev.get(u, ()):
            cand = longest_to[u] + 1
            if longest_to[v] is None or cand > longest_to[v]:
                longest_to[v] = cand

    bound = 0
    for e in net.unknown_edges:
        if idx_of[e] in infeasible:
            continue
        bound += longest_from[e.src] + longest_to[e.dst]
    return infeasible, bound


def exhaustive_degree_bound(net: NetworkModel) -> int | None:
    """Smallest degree bound making the table complete, or None when a known block is cyclic.

    Returns 0 when some unknown edge has no walk at all (the empty
    enumeration is already complete).
    """
    blocks = separate(net)
    infeasible, bound = _completeness(net, blocks)
    if infeasible:
        return 0
    return bound


def repetition_table(net: NetworkModel, max_degree: int) -> RepetitionTable:
    """Signed count of bounded walk collections per monomial.

    Depth-first product over per-unknown-edge walk lists with running-degree
    pruning and an incremental one-walk-per-(excitation, measurement)-pair
    check.  Counts for every monomial of degree <= max_degree are exact;
    raising the bound never changes them, it only adds higher entries.
    """
    blocks = separate(net)
    if not net.is_square:
        raise NotSquareError(net)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")

    pivots = [i for i, e in enumerate(net.edges) if not e.known]
    m = len(pivots)
    walk_lists: list[tuple[Walk, ...]] = []
    for i in pivots:
        ws = enumerate_walks(net, blocks, net.edges[i], max_degree)
        ws.sort(key=lambda w: (w.degree, w.edges))
        walk_lists.append(tuple(ws))

    # Minimum attainable degree of the remaining unknown edges, for pruning.
    min_rest = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        least = walk_lists[k][0].degree if walk_lists[k] else 0
        min_rest[k] = min_rest[k + 1] + least

    b_slot = {b: i for i, b in enumerate(net.excited)}
    c_slot = {c: i for i, c in enumerate(net.measured)}
    n_c = net.n_measured

    entries: dict[Monomial, int] = {}
    rows: list[int] = []
    used: set[int] = set()
    acc: list[int] = []

    def dfs(k: int, degree_used: int) -> None:
        if k == m:
            mu = monomial_of(acc)
            entries[mu] = entries.get(mu, 0) + _parity(rows)
            return
        for w in walk_lists[k]:
            d = degree_used + w.degree
            if d + min_rest[k + 1] > max_degree:
                break
            row = b_slot[w.start] * n_c + c_slot[w.end]
            if row in used:
                continue
            used.add(row)
            rows.append(row)
            acc.extend(w.known_edge_indices())
            dfs(k + 1, d)
            if w.degree:
                del acc[-w.degree :]
            rows.pop()
            used.discard(row)

    if all(walk_lists):
        dfs(0, 0)

    infeasible, complete_bound = _completeness(net, blocks)
    exhaustive = bool(infeasible) or (complete_bound is not None and max_degree >= complete_bound)
    return RepetitionTable(
        entries=entries,
        max_degree=max_degree,
        exhaustive=exhaustive,
        walks=tuple(walk_lists),
        infeasible_pivots=infeasible,
    )


def _witness_collection(
    net: NetworkModel,
    table_walks: Sequence[Sequence[Walk]],
    mu: Monomial,
    want_sign: int,
) -> tuple[Walk, ...] | None:
    """Lexicographically smallest collection with monomial mu and the given sign.

    Searches the walks a repetition table counted over, re-sorted by edge
    sequence: one walk per unknown edge, in canonical edge order.
    """
    walk_lists = [sorted(ws, key=lambda w: w.edges) for ws in table_walks]
    m = len(walk_lists)

    budget = Counter(dict(mu))
    b_slot = {b: i for i, b in enumerate(net.excited)}
    c_slot = {c: i for i, c in enumerate(net.measured)}
    n_c = net.n_measured
    rows: list[int] = []
    used: set[int] = set()
    chosen: list[Walk] = []

    def fits(w: Walk) -> bool:
        need = Counter(w.known_edge_indices())
        return all(budget[idx] >= cnt for idx, cnt in need.items())

    def dfs(k: int) -> tuple[Walk, ...] | None:
        if k == m:
            if sum(budget.values()) == 0 and _parity(rows) == want_sign:
                return tuple(chosen)
            return None
        for w in walk_lists[k]:
            row = b_slot[w.start] * n_c + c_slot[w.end]
            if row in used or not fits(w):
                continue
            need = Counter(w.known_edge_indices())
            budget.subtract(need)
            used.add(row)
            rows.append(row)
            chosen.append(w)
            found = dfs(k + 1)
            chosen.pop()
            rows.pop()
            used.discard(row)
            budget.update(need)
            if found is not None:
                return found
        return None

    return dfs(0)


def verdict_from_table(net: NetworkModel, table: RepetitionTable) -> Verdict:
    """Decide identifiability from a repetition table, with an explicit witness.

    A surviving monomial proves identifiability outright.  An all-zero
    table refutes it only when the table is exhaustive; otherwise the
    outcome is inconclusive at this bound.
    """
    m = net.m_unknown
    surviving = [(mu, r) for mu, r in table.sorted_items() if r != 0]
    if surviving:
        mu, r = surviving[0]
        coll = _witness_collection(net, table.walks, mu, 1 if r > 0 else -1)
        witness = {"monomial": format_monomial(net, mu), "repetition": r}
        if coll is not None:
            witness["walks"] = [
                {"nodes": [v + 1 for v in walk_nodes(net, w)], "pivot": str(net.edges[w.pivot])}
                for w in coll
            ]
        return Verdict(
            IDENTIFIABLE,
            GLOBAL_SEPARABLE,
            m_unknown=m,
            max_degree=table.max_degree,
            exhaustive=table.exhaustive,
            witness=witness,
        )
    if table.infeasible_pivots:
        witness = {"no_walk_pivots": [str(net.edges[i]) for i in table.infeasible_pivots]}
        return Verdict(
            NOT_IDENTIFIABLE,
            GLOBAL_SEPARABLE,
            m_unknown=m,
            max_degree=table.max_degree,
            exhaustive=True,
            witness=witness,
        )
    if table.exhaustive:
        return Verdict(
            NOT_IDENTIFIABLE,
            GLOBAL_SEPARABLE,
            m_unknown=m,
            max_degree=table.max_degree,
            exhaustive=True,
        )
    return Verdict(
        INCONCLUSIVE,
        GLOBAL_SEPARABLE,
        m_unknown=m,
        max_degree=table.max_degree,
        exhaustive=False,
    )


def _degree_bound(net: NetworkModel, max_degree: int | None) -> int:
    """The walk route's degree bound: ``max_degree``, or 2n when it is None.

    2n is enough to traverse every simple path twice over in each block;
    cyclic blocks may need more before a monomial survives, in which case
    the verdict is inconclusive rather than wrong.
    """
    return 2 * net.n if max_degree is None else max_degree


def _walk_route(
    net: NetworkModel, max_degree: int | None, decouple_first: bool = False, seed: int = 0
) -> tuple[NetworkModel, RepetitionTable, Verdict]:
    """(network analyzed, repetition table, verdict) of the walk-counting route.

    With ``decouple_first`` the table is built on ``decouple(net, seed)``
    and the verdict carries the decoupled notion; the default bound is 2n
    of the network analyzed.
    """
    validate(net)
    target = decouple(net, seed) if decouple_first else net
    if target.m_unknown == 0:
        raise NoUnknownEdgesError()
    table = repetition_table(target, _degree_bound(target, max_degree))
    verdict = verdict_from_table(target, table)
    if decouple_first:
        verdict = replace(verdict, notion=DECOUPLED_GENERIC)
    return target, table, verdict


def combinatorial_verdict(net: NetworkModel, max_degree: int | None = None) -> Verdict:
    """Identifiability of a separable square network by signed walk counting, at bound 2n by default."""
    return _walk_route(net, max_degree)[2]


def necessary_condition_any_topology(
    net: NetworkModel, max_degree: int | None = None, seed: int = 0
) -> Verdict:
    """Walk-counting test applied to the decoupled form of an arbitrary network.

    The decoupled form is always separable and square whenever the source
    is square, so the walk count applies to any topology through it.  A
    not-identifiable outcome refutes local identifiability of the source
    (the decoupled notion is necessary for the local one); an identifiable
    outcome certifies the decoupled notion only.
    """
    return _walk_route(net, max_degree, decouple_first=True, seed=seed)[2]
