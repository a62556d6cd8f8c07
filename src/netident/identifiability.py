"""Identifiability verdicts for the unknown edges of a network.

Two notions decided by a randomized exact test on the sensitivity matrix:

* local-generic: the unknown edges are locally recoverable from the
  excitation-to-measurement map at almost every choice of edge values.
  Decided by the generic rank of the sensitivity matrix (full rank or not,
  a dichotomy).
* decoupled-generic: recoverability when the two closed-loop factors
  surrounding the unknown-edge perturbation vary independently.  A
  necessary condition for the local notion, and the local notion of the
  2n-node decoupled construction (``decouple``), a separable problem.

The third notion, global-separable, is the walk verdict of
``combinatorial``: on separable networks the local and global questions
coincide, and the signed walk-collection count decides them with no sample.

Every verdict carries its evidence (rank, seed, witness), so a decision
can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .netmodel import Edge, NetworkModel, SeparableBlocks, decouple, separate
from .numeric import generic_rank

__all__ = [
    "IDENTIFIABLE",
    "NOT_IDENTIFIABLE",
    "INCONCLUSIVE",
    "LOCAL_GENERIC",
    "DECOUPLED_GENERIC",
    "GLOBAL_SEPARABLE",
    "NoUnknownEdgesError",
    "Verdict",
    "local_identifiability",
    "decoupled_identifiability",
]

IDENTIFIABLE = "identifiable"
NOT_IDENTIFIABLE = "not-identifiable"
INCONCLUSIVE = "inconclusive"

LOCAL_GENERIC = "local-generic"
DECOUPLED_GENERIC = "decoupled-generic"
GLOBAL_SEPARABLE = "global-separable"


class NoUnknownEdgesError(ValueError):
    """Identifiability queries need at least one unknown edge."""

    def __init__(self):
        super().__init__("network has no unknown edges; nothing to identify")


@dataclass(frozen=True)
class Verdict:
    """Decision plus the evidence needed to replay it.

    ``rank`` and ``seed`` (which, with the network, fixes every sample) are
    set by the rank-based notions, ``max_degree``/``exhaustive`` by the
    walk-counting route.  ``witness`` is a small JSON-ready dict:
    structurally zero columns, a surviving monomial with its walks, the
    unknown edges or (excitation, measurement) pairs no walk can serve, or
    a structural rank bound below the number of unknown edges.
    """

    decision: str
    notion: str
    m_unknown: int
    seed: int | None = None
    rank: int | None = None
    max_degree: int | None = None
    exhaustive: bool | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"decision": self.decision, "notion": self.notion, "unknown_edges": self.m_unknown}
        for key in ("seed", "rank", "max_degree", "exhaustive", "witness"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def _require_unknowns(net: NetworkModel) -> None:
    if net.m_unknown == 0:
        raise NoUnknownEdgesError()


def _reach(adj: list[list[int]], starts: tuple[int, ...]) -> dict[int, int]:
    """Each node a walk along ``adj`` (successors, or predecessors to walk backwards) reaches from ``starts``.

    Breadth first, so each node maps to the fewest edges such a walk takes.
    """
    dist = dict.fromkeys(starts, 0)
    frontier = list(dist)
    for u in frontier:  # grows as nodes are reached
        step = dist[u] + 1
        for v in adj[u]:
            if v not in dist:
                dist[v] = step
                frontier.append(v)
    return dist


def _disjoint_paths(succ: list[list[int]], sources: Iterable[int], targets: Iterable[int]) -> int:
    """The largest number of vertex-disjoint walks along ``succ`` from ``sources`` to ``targets``.

    A node in both sets is a walk of no edge.  Augmenting paths of unit
    capacity on the node-split graph: every node has an in-copy and an
    out-copy joined by one unit, so no two walks share a node.  ``prev[v]``
    and ``nxt[v]`` are v's neighbours on its walk, -1 where the walk starts
    at a source or ends at a target, None while v is on no walk.  In the
    residual graph the in-copy of a node on a walk leads only back to its
    predecessor's out-copy, and an out-copy leads along every edge its walk
    does not use, and back to its own in-copy when it is on a walk.
    """
    sources, targets = tuple(dict.fromkeys(sources)), frozenset(targets)
    prev: dict[int, int | None] = {}
    nxt: dict[int, int | None] = {}
    for flow in range(min(len(sources), len(targets))):
        # Breadth first over node copies, 2v for v's in-copy and 2v + 1 for its out-copy.
        parent = {2 * v: None for v in sources if prev.get(v) != -1}
        frontier = list(parent)
        end = None
        for state in frontier:  # grows as copies are reached
            v, out = divmod(state, 2)
            if not out:
                before = prev.get(v)
                moves = [2 * v + 1] if before is None else [2 * before + 1] if before >= 0 else []
            else:
                if v in targets and nxt.get(v) != -1:
                    end = state
                    break
                after = nxt.get(v)
                moves = [2 * w for w in succ[v] if w != after]
                if prev.get(v) is not None:
                    moves.append(2 * v)  # back through v, undoing its unit
            for move in moves:
                if move not in parent:
                    parent[move] = state
                    frontier.append(move)
        if end is None:
            return flow
        # Reroute along the path: a forward edge u -> v joins u to v; undoing v's own unit frees it.
        nxt[end // 2] = -1
        state = end
        while (before := parent[state]) is not None:
            if state % 2 == 0 and before % 2:
                u, v = before // 2, state // 2
                if u == v:
                    prev[v] = nxt[v] = None
                else:
                    nxt[u], prev[v] = v, u
            state = before
        prev[state // 2] = -1
    return min(len(sources), len(targets))


def _node_count(sources: Sequence[int], targets: Sequence[int]) -> int:
    """At least ``_disjoint_paths(succ, sources, targets)``: no more walks than sources or targets."""
    return min(len(sources), len(targets))


def _longest_walks(adj: list[list[int]], starts: Iterable[int]) -> dict[int, int] | None:
    """Longest walk along ``adj`` from ``starts`` to each node they reach, or None when ``adj`` has a cycle.

    Kahn's order carries the lengths; with predecessors as ``adj``, walks run into ``starts``.
    """
    indeg = [0] * len(adj)
    for targets in adj:
        for v in targets:
            indeg[v] += 1
    longest = dict.fromkeys(starts, 0)
    ordered = [u for u, d in enumerate(indeg) if d == 0]
    for u in ordered:  # grows as nodes become ready
        for v in adj[u]:
            if u in longest:
                longest[v] = max(longest.get(v, 0), longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                ordered.append(v)
    return longest if len(ordered) == len(adj) else None


class _Structure:
    """Reach facts of one network, built per verdict and never kept on the model; each sweep runs once.

    The rank witness reads ``zero_columns``: one sweep from all excitations
    and one into all measurements.  ``dead_rows`` adds one per port.
    ``rank_bound`` reads those two sweeps, and runs a max-flow only where
    two or more nodes are left on both of its sides; the decoupled route
    asks only ``rank_bound_at_most``, which tries node counts first.  The
    walk route reads ``refutation``, ``least_degrees`` and
    ``known_adjacency``, once per verdict.
    """

    def __init__(self, net: NetworkModel):
        self.net = net
        succ: list[list[int]] = [[] for _ in range(net.n)]
        pred: list[list[int]] = [[] for _ in range(net.n)]
        unknown: list[Edge] = []  # in edge-list order, as ``net.unknown_edges``
        for e in net.edges:
            succ[e.src].append(e.dst)
            pred[e.dst].append(e.src)
            if not e.known:
                unknown.append(e)
        self.succ, self.pred, self.unknown = succ, pred, unknown
        self._sweeps: dict[tuple[tuple[int, ...], bool], dict[int, int]] = {}
        self._flows: dict[tuple[frozenset[int], frozenset[int]], int] = {}

    def sweep(self, starts: tuple[int, ...], backward: bool = False) -> dict[int, int]:
        """Nodes reached from ``starts``, or with ``backward`` the nodes that reach them, each with its distance."""
        key = (starts, backward)
        if key not in self._sweeps:
            self._sweeps[key] = _reach(self.pred if backward else self.succ, starts)
        return self._sweeps[key]

    @cached_property
    def blocks(self) -> SeparableBlocks:
        """The separable bipartition (``separate``), found once; NotSeparableError when there is none."""
        return separate(self.net)

    @cached_property
    def known_adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Known edges as tail -> [(edge index, head)], in net.edges order, built once for every walk listing.

        ``separate`` puts each known-edge component whole into one part, so a
        walk along them from an excitation or from a head stays in its block.
        """
        adj: dict[int, list[tuple[int, int]]] = {}
        for i, e in enumerate(self.net.edges):
            if e.known:
                adj.setdefault(e.src, []).append((i, e.dst))
        return adj

    @cached_property
    def zero_columns(self) -> list[Edge]:
        """Unknown edges whose sensitivity column is zero for every edge value.

        The column multiplies the closed loops from an excitation to the
        tail and from the head to a measurement, and each is identically
        zero exactly when no walk joins its ends.
        """
        from_excited, to_measured = self.sweep(self.net.excited), self.sweep(self.net.measured, True)
        return [e for e in self.unknown if e.src not in from_excited or e.dst not in to_measured]

    @cached_property
    def dead_rows(self) -> list[tuple[int, int]]:
        """(excitation, measurement) rows of a separable network that no walk serves, in row order.

        A walk of row (b, c) runs from excitation b to an unknown edge's
        tail and from its head to measurement c.
        """
        into = [(c, self.sweep((c,), True)) for c in self.net.measured]
        dead = []
        for b in self.net.excited:
            out_of = self.sweep((b,))
            for c, to_c in into:
                if not any(e.src in out_of and e.dst in to_c for e in self.unknown):
                    dead.append((b, c))
        return dead

    @cached_property
    def no_collection(self) -> bool:
        """Whether a separable network has no walk collection: a zero column, or a row no walk serves."""
        return bool(self.zero_columns or self.dead_rows)

    @cached_property
    def least_degrees(self) -> list[int]:
        """Per unknown edge, the fewest known edges of a walk through it; the network must have no zero column.

        That is the nearest excitation's distance to the tail plus the head's
        distance to the nearest measurement.  A shortest walk into a tail never
        leaves the excited part, nor one out of a head the measured part, so
        sweeps over every edge measure them.
        """
        into_tail, out_of_head = self.sweep(self.net.excited), self.sweep(self.net.measured, True)
        return [into_tail[e.src] + out_of_head[e.dst] for e in self.unknown]

    @cached_property
    def refutation(self) -> dict | None:
        """The structure's proof that det K is identically zero, as a table's ``witness``; None when it has none."""
        if self.zero_columns:
            return {"no_walk_pivots": [str(e) for e in self.zero_columns]}
        if self.dead_rows:
            return {"no_walk_rows": [[b + 1, c + 1] for b, c in self.dead_rows]}
        if self.rank_bound["bound"] < self.net.m_unknown:
            return {"rank_bound": self.rank_bound}
        return None

    @cached_property
    def completeness_bound(self) -> int:
        """``combinatorial.exhaustive_degree_bound`` of a separable network; the proof is in its docstring.

        On a separable network an unknown edge lies on no cycle, and a walk
        into a tail or out of a head stays in its known block, so passes over
        every edge find the blocks' cycles and longest walks.
        """
        net = self.net
        if self.no_collection:
            return 0
        into_tail = _longest_walks(self.succ, net.excited)
        if into_tail is None:
            walked = self.sweep(net.excited).keys() & self.sweep(net.measured, True).keys()
            return net.m_unknown * (len(walked) - 2)
        out_of_head = _longest_walks(self.pred, net.measured)  # acyclic too: the same edges reversed
        return sum(into_tail[e.src] + out_of_head[e.dst] for e in self.unknown)

    @cached_property
    def rank_bound(self) -> dict:
        """An upper bound on the generic rank of the sensitivity matrix K for every edge value, from the graph alone.

        Column j->h of K is T[C, h] T[j, B], T the closed loop, so the
        columns of any group of unknown edges, with heads H and tails J, lie
        in the span of T[C, H] (x) T[J, B] and span at most
        rank T[C, H] * rank T[J, B] dimensions.  The generic rank of T[X, Y]
        is the largest number of vertex-disjoint walks from Y to X (van der
        Woude 1991), and it holds at every edge value since a rank only
        drops there.  The three candidates of ``_rank_groups`` bound rank K
        this way; the flows run once each (``_flow``).
        The argument never uses that a column's two factors come from one
        closed loop, so the bound holds for the decoupled rank too.

        Returns the least candidate, the first of heads, tails, product on a tie,
        as ``{"bound": ..., "by": "heads" | "tails" | "product"}``.
        A heads or tails sum below the number of unknown edges also names
        the first ``node`` (1-based) whose ``unknown_edges`` span less than
        their count, and that ``rank``; the product names its two flows,
        ``heads_to_measured`` and ``excited_to_tails``.
        """
        return min(self._candidates(self._rank_groups(), self._flow), key=lambda side: side["bound"])

    def rank_bound_at_most(self, rank: int) -> bool:
        """Whether ``rank_bound["bound"] <= rank``, running as few max-flows as it can.

        A group's node count, min(|sources|, |targets|), is at least its
        flow, so a candidate read with counts for flows is at least the
        candidate itself.  Counts alone answer whenever some candidate
        counts to at most ``rank``; only then do the flows run, candidate
        by candidate in tie order, up to the first at most ``rank``.
        """
        groups = self._rank_groups()
        return any(side["bound"] <= rank for side in self._candidates(groups, _node_count)) or any(
            side["bound"] <= rank for side in self._candidates(groups, self._flow)
        )

    def _rank_groups(self) -> list[tuple[str, list[tuple[int | None, int, list[int], list[int]]]]]:
        """The candidates of ``rank_bound`` in tie order, each as (by, groups); a group is (node, unknown edges, heads, tails).

        * ``heads``: one group per head h, of the unknown edges into h, node
          h; its term is 0 when h reaches no measurement;
        * ``tails``: the same mirrored, one group per tail;
        * ``product``: all unknown edges as one group, node None.  Its term
          is at most the row count |B||C|.

        A group keeps only the heads that reach a measurement and the tails
        an excitation reaches, as the two reach sweeps give them; the others
        lie on no such walk.
        """
        from_excited, to_measured = self.sweep(self.net.excited), self.sweep(self.net.measured, True)
        by_head: dict[int, list[int]] = {}
        by_tail: dict[int, list[int]] = {}
        for e in self.unknown:
            by_head.setdefault(e.dst, []).append(e.src)
            by_tail.setdefault(e.src, []).append(e.dst)

        def heads(nodes: Iterable[int]) -> list[int]:
            return [h for h in nodes if h in to_measured]

        def tails(nodes: Iterable[int]) -> list[int]:
            return [t for t in nodes if t in from_excited]

        return [
            ("heads", [(h, len(ends), heads((h,)), tails(ends)) for h, ends in by_head.items()]),
            ("tails", [(t, len(ends), heads(ends), tails((t,))) for t, ends in by_tail.items()]),
            ("product", [(None, len(self.unknown), heads(by_head), tails(by_tail))]),
        ]

    def _candidates(self, groups: list, flow) -> Iterator[dict]:
        """The candidates of ``rank_bound`` in tie order from their ``_rank_groups``, with ``flow(sources, targets)`` for each group's two flows.

        A group's term is rank T[C, heads] * rank T[tails, B], the flow from
        its heads to the measurements times the flow from the excitations
        to its tails.  A generator, so a caller that stops early reads no
        further candidate.
        """
        net = self.net
        for by, sides in groups:
            total, limit = 0, {}
            for node, count, heads, tails in sides:
                into, out_of = flow(heads, net.measured), flow(net.excited, tails)
                rank = into * out_of
                total += rank
                if node is None:
                    limit = {"heads_to_measured": into, "excited_to_tails": out_of}
                elif rank < count and not limit:
                    limit = {"node": node + 1, "unknown_edges": count, "rank": rank}
            yield {"bound": total, "by": by, **limit}

    def _flow(self, sources: Sequence[int], targets: Sequence[int]) -> int:
        """``_disjoint_paths`` from ``sources`` to ``targets``, run once per pair of node sets.

        With at most one node on a side the flow is that count and no
        max-flow runs, so a head or tail that holds one unknown edge never
        runs one; heads that share their tails share their flow.
        """
        most = min(len(sources), len(targets))
        if most < 2:
            return most
        key = frozenset(sources), frozenset(targets)
        if key not in self._flows:
            self._flows[key] = _disjoint_paths(self.succ, sources, targets)
        return self._flows[key]


def _rank_verdict(net: NetworkModel, notion: str, rank: int, seed: int, structure: _Structure | None = None) -> Verdict:
    m = net.m_unknown
    if rank == m:
        return Verdict(IDENTIFIABLE, notion, m_unknown=m, seed=seed, rank=rank)
    zero_cols = (structure or _Structure(net)).zero_columns
    witness = {"zero_columns": [str(e) for e in zero_cols]} if zero_cols else None
    return Verdict(NOT_IDENTIFIABLE, notion, m_unknown=m, seed=seed, rank=rank, witness=witness)


@lru_cache(maxsize=1)
def _local_rank(net: NetworkModel, seed: int) -> int:
    """``generic_rank(net, seed=seed)``, the last one kept: ``netident check`` asks for the local verdict, then the decoupled one reads the same rank."""
    return generic_rank(net, seed=seed)


def local_identifiability(net: NetworkModel, seed: int = 0) -> Verdict:
    """Generic local identifiability: full generic rank of the sensitivity matrix.

    The rank is either full for almost all edge values or deficient for all
    of them, so the sampled maximum decides the question outright; there is
    no inconclusive outcome on this route.
    """
    _require_unknowns(net)
    return _rank_verdict(net, LOCAL_GENERIC, _local_rank(net, seed), seed)


def decoupled_identifiability(net: NetworkModel, seed: int = 0) -> Verdict:
    """Generic decoupled identifiability: the local rank of the 2n-node lift ``decouple(net)``.

    The lift's closed loop holds G1 on its measured copy and G2 on its
    excited copy, so its sensitivity matrix is the one of ``net`` with the
    two closed-loop factors drawn independently.  Let r be the local rank
    at ``seed`` (``local_identifiability``), a rank at one sample G.  That
    sample is the lift's at G1 = G2 = G, and no rank at a point exceeds the
    generic rank, so r bounds the decoupled generic rank from below.
    ``_Structure.rank_bound`` holds at every edge value, factors drawn
    independently or not, so it bounds it from above.  So r = m proves the
    decoupled rank is m, and r = the bound proves it is r, with no sample
    of the lift.  The bound is the least of three candidates, each an upper
    bound in its own right, so it is at most r exactly when some candidate
    is; ``_Structure.rank_bound_at_most`` asks that first with each flow
    read as its node count, an upper bound on the flow, and runs max-flows
    only when no count reaches r.  Only when r is below both m and the
    bound is the lift ranked
    (``generic_rank(decouple(net), seed=seed)``); the verdict reports the
    larger of that rank and r, both lower bounds.  That rank's failure
    bound is ``generic_rank``'s at 2n nodes, q = 4mn / (p - 1 - 4n), so a
    deficient lift with mn in (2^19, 2^20] draws two samples where one of
    n nodes would do.
    """
    _require_unknowns(net)
    structure = _Structure(net)
    rank = _local_rank(net, seed)
    if rank < net.m_unknown and not structure.rank_bound_at_most(rank):
        rank = max(rank, generic_rank(decouple(net), seed=seed))
    return _rank_verdict(net, DECOUPLED_GENERIC, rank, seed, structure)
