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

A walk is only the tuple of its edge indices (``Walk``), its one unknown
edge included: its ends are the tail of its first edge and the head of its
last, and the k-th walk of a collection runs through the k-th unknown edge.

Walks may repeat edges, so cyclic known blocks admit walks of every
length.  Enumeration is therefore bounded by total monomial degree; the
table is exact for every degree it covers, and the verdict is final only
when the table is exhaustive.  ``exhaustive_degree_bound`` is the single
rule for that: 0 when no collection exists, the longest collection on
acyclic blocks, else a degree D where an all-zero table proves det K = 0.

The walk route asks the graph first, at every bound: no collection, or a
rank bound of the sensitivity matrix, from vertex-disjoint walks, below
the number of unknown edges, proves det K identically zero.  Such a
verdict is "not identifiable" at whatever bound was asked, and no walk is
listed.  Otherwise an explicit bound counts its one table, and with no
bound given the route counts one table per bound, upward from the least
collection degree to min(D, 2n), and stops at the first table with a
surviving monomial; that survivor, its count and its collection are the
ones the table at min(D, 2n) would give.

One layered count adds the unknown edges one at a time, merging partial
collections that reach the same (rows used, monomial so far, sign) state,
and keeps the first collection that reaches each state.  Within the count
a monomial is one packed integer, a bit field per known edge holding its
multiplicity, so extending a state is one addition.  The table keeps its
counts and first collections under those packed keys: the verdict decodes
only the least surviving monomial, and the ``Monomial`` tuples of every entry
are decoded once, when the table is first read.  States and walks are
visited in order, so the collection kept is the lexicographically smallest,
and the verdict reads its witness from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable

from .identifiability import (
    DECOUPLED_GENERIC,
    GLOBAL_SEPARABLE,
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    NoUnknownEdgesError,
    Verdict,
    _Structure,
)
from .netmodel import NetworkModel, NotSquareError, decouple

__all__ = [
    "MAX_WALK_UNKNOWNS",
    "TooLargeError",
    "Monomial",
    "monomial_degree",
    "format_monomial",
    "Walk",
    "walk_nodes",
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

# Input-size guard: the walk route refuses more unknown edges than this before enumerating any walk.
MAX_WALK_UNKNOWNS = 500


class TooLargeError(ValueError):
    """An input beyond the size a route is built for; refused before any enumeration."""


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


# A walk: indices into net.edges from an excitation to a measurement, exactly
# one of them unknown (its pivot).  The edges before the pivot lie in the
# excited known block, those after it in the measured one; the walk starts
# at net.edges[w[0]].src and ends at net.edges[w[-1]].dst.
Walk = tuple[int, ...]


def walk_nodes(net: NetworkModel, walk: Walk) -> list[int]:
    return [net.edges[walk[0]].src] + [net.edges[idx].dst for idx in walk]


def _walks_between(
    adj: dict[int, list[tuple[int, int]]], start: int, goal: int, bound: int
) -> list[tuple[int, ...]]:
    """All edge-index sequences from start to goal of length <= bound; repeats allowed.

    Depth-first on an explicit stack, so a deep bound on a cyclic block nests no calls.
    """
    out: list[tuple[int, ...]] = [()] if start == goal else []
    path: list[int] = []
    stack = [iter(adj.get(start, ()) if bound > 0 else ())]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
            continue
        eidx, nxt = step
        path.append(eidx)
        if nxt == goal:
            out.append(tuple(path))
        stack.append(iter(adj.get(nxt, ()) if len(path) < bound else ()))
    return out


def enumerate_walks(net: NetworkModel, adjacency: tuple[dict, dict], pivot: int, max_degree: int) -> list[Walk]:
    """All walks through the unknown edge ``net.edges[pivot]`` with at most ``max_degree`` known edges.

    A walk is an excited-block prefix, the pivot, then a measured-block
    suffix.  The one bound caps prefix and suffix together, so no walk
    above it is ever built.  ``adjacency`` is the blocks' known-edge
    adjacency (``_Structure.block_adjacency``).
    """
    adj_b, adj_c = adjacency
    e = net.edges[pivot]
    prefixes = [sorted(_walks_between(adj_b, b, e.src, max_degree), key=len) for b in net.excited]
    shortest = min((len(ps[0]) for ps in prefixes if ps), default=None)
    if shortest is None:
        return []
    walks: list[Walk] = []
    for c in net.measured:
        for suffix in _walks_between(adj_c, e.dst, c, max_degree - shortest):
            room = max_degree - len(suffix)
            for ps in prefixes:
                for prefix in ps:
                    if len(prefix) > room:
                        break
                    walks.append(prefix + (pivot,) + suffix)
    return walks


@dataclass(frozen=True)
class RepetitionTable:
    """Signed collection counts per monomial, up to a total-degree bound.

    Entries that cancelled to zero are retained: a cancellation is exactly
    the phenomenon the count is after.  ``exhaustive`` is true when
    ``max_degree`` reaches ``exhaustive_degree_bound``, where an all-zero
    table proves the determinant zero, and at every bound when the
    structure already proves it (``witness``).

    The count is held packed, as ``repetition_table`` leaves it: ``counts``
    maps each packed monomial to its signed count, and ``collections`` maps
    each (packed monomial, sign) that some collection has, sign +1 or -1
    being the parity of the pairing, to the lexicographically first such
    collection by edge sequence: one walk per unknown edge, the k-th
    through the k-th unknown edge in net.edges order.  A packed monomial
    holds the multiplicity of ``fields[j]`` in bits j * width up to
    (j + 1) * width.  ``entries`` and ``first`` are the same two dicts
    keyed by ``Monomial`` tuples, decoded on first read.  A cancelled entry
    has both signs recorded.  Every dict lists its keys in the order of
    those first collections.  ``degrees`` maps each packed monomial to its
    total degree.

    ``witness`` is the structural reason no monomial survives, when the
    graph gives one, as the verdict prints it: the unknown edges no walk
    serves (``no_walk_pivots``), else the (excitation, measurement) node
    pairs no walk serves (``no_walk_rows``, 1-based), else a rank bound of
    the sensitivity matrix below the number of unknown edges
    (``rank_bound``, as ``_Structure.rank_bound`` gives it).  The first two
    leave the table empty at every bound; under a rank bound the counted
    entries are all cancelled ones.
    """

    max_degree: int
    exhaustive: bool
    counts: dict[int, int] = field(default_factory=dict, repr=False)
    collections: dict[tuple[int, int], tuple[Walk, ...]] = field(default_factory=dict, repr=False, compare=False)
    degrees: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    fields: tuple[int, ...] = ()
    width: int = 1
    witness: dict | None = None

    def _decode(self, packed: int) -> Monomial:
        mask = (1 << self.width) - 1
        return tuple((i, c) for j, i in enumerate(self.fields) if (c := packed >> j * self.width & mask))

    @cached_property
    def entries(self) -> dict[Monomial, int]:
        return {self._decode(packed): r for packed, r in self.counts.items()}

    @cached_property
    def first(self) -> dict[tuple[Monomial, int], tuple[Walk, ...]]:
        monomials = dict(zip(self.counts, self.entries))
        return {(monomials[packed], sign): coll for (packed, sign), coll in self.collections.items()}

    def least_survivor(self) -> tuple[Monomial, int, tuple[Walk, ...]] | None:
        """The nonzero entry least by (degree, monomial), its count and its sign's first collection.

        None when every entry cancelled.  Only the least survivor is decoded.
        Among monomials of one degree none is a prefix of another, so the
        least one is found field by field from the lowest edge up: a
        multiplicity there beats none, which leaves the field to a higher
        edge, and a smaller multiplicity beats a larger one.
        """
        survivors = [packed for packed, r in self.counts.items() if r != 0]
        if not survivors:
            return None
        low = min(map(self.degrees.__getitem__, survivors))
        least = [packed for packed in survivors if self.degrees[packed] == low]
        mask, shift = (1 << self.width) - 1, 0
        while len(least) > 1:
            lowest = min((c for packed in least if (c := packed >> shift & mask)), default=0)
            if lowest:
                least = [packed for packed in least if packed >> shift & mask == lowest]
            shift += self.width
        packed = least[0]
        mu, r = self._decode(packed), self.counts[packed]
        return mu, r, self.collections[packed, 1 if r > 0 else -1]

    def sorted_items(self) -> list[tuple[Monomial, int]]:
        return sorted(self.entries.items(), key=lambda kv: (monomial_degree(kv[0]), kv[0]))


def exhaustive_degree_bound(net: NetworkModel) -> int:
    """Smallest degree bound at which the table decides: the walk route's one completeness rule.

    * 0 when no collection exists (an unknown edge or a row no walk serves).
    * With both known blocks acyclic, the sum over unknown edges of the
      longest walk from an excitation into the tail plus the longest walk
      from the head to a measurement: no collection is longer.
    * Otherwise D = m(|R_B| + |R_C| - 2).  R_B holds the excited-part nodes
      that some excitation reaches and that reach some unknown tail, R_C
      the measured-part nodes that some head reaches and that reach some
      measurement; when every tail is reached and every head reaches a
      measurement, they are the nodes on excitation-to-measurement walks.

    Why D is enough.  A walk from an excitation to a tail stays in R_B, so
    there T_B = adj(I - G_B) / det(I - G_B), G_B the known block on R_B;
    likewise T_C on R_C.  K[(b, c), j->i] = T_C[c, i] T_B[j, b], so det K =
    det N / (det(I - G_B) det(I - G_C))^m with N[(b, c), j->i] =
    adj(I - G_C)[c, i] adj(I - G_B)[j, b].  Cofactors of an r x r matrix of
    degree-1 entries have degree at most r - 1, so det N has degree at most
    D.  The table holds the coefficients of det K, a power series in the
    known edges, up to its bound; the denominator has constant term 1, so
    det N's coefficients up to degree D follow from det K's.  A table zero
    up to D thus makes det N, and with it det K, identically zero.
    """
    structure = _Structure(net)
    structure.blocks  # NotSeparableError on a network that is not separable
    return structure.completeness_bound


def _walk_guards(net: NetworkModel, structure: _Structure, max_degree: int | None) -> None:
    """The walk route's input guards: separable, square, not too large, and no negative bound."""
    structure.blocks  # NotSeparableError on a network that is not separable
    if not net.is_square:
        raise NotSquareError(net)
    if net.m_unknown > MAX_WALK_UNKNOWNS:
        raise TooLargeError(f"{net.m_unknown} unknown edges exceed the walk-route guard of {MAX_WALK_UNKNOWNS}")
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be >= 0")


def _refutation(net: NetworkModel, structure: _Structure) -> dict | None:
    """The structure's proof that det K is identically zero, as a table's ``witness``; None when it has none."""
    if structure.zero_columns:
        return {"no_walk_pivots": [str(e) for e in structure.zero_columns]}
    if structure.dead_rows:
        return {"no_walk_rows": [[b + 1, c + 1] for b, c in structure.dead_rows]}
    if structure.rank_bound["bound"] < net.m_unknown:
        return {"rank_bound": structure.rank_bound}
    return None


def _least_degrees(net: NetworkModel, structure: _Structure) -> list[int]:
    """Per unknown edge, the fewest known edges of a walk through it; the network must have no zero column.

    That is the nearest excitation's distance to the tail plus the head's
    distance to the nearest measurement.  A shortest walk into a tail never
    leaves the excited part, nor one out of a head the measured part, so
    sweeps over every edge measure them.
    """
    into_tail, out_of_head = structure.sweep(net.excited), structure.sweep(net.measured, True)
    return [into_tail[e.src] + out_of_head[e.dst] for e in net.unknown_edges]


def repetition_table(net: NetworkModel, max_degree: int, *, structure: _Structure | None = None) -> RepetitionTable:
    """Signed count of bounded walk collections per monomial.

    One loop over the unknown edges, in net.edges order, extends every
    partial collection state by each walk of that edge that fits the
    remaining degree and uses a free (excitation, measurement) row;
    collections reaching the same state are counted together.  Counts for
    every monomial of degree <= max_degree are exact; raising the bound
    never changes them, it only adds higher entries.  States and walks are
    extended in order, so the first collection kept for a (monomial, sign)
    is the lexicographically smallest one.  Every collection uses every
    unknown edge and every row, so an unknown edge or a row that no walk
    serves leaves the table empty at every bound, and no walk is listed.
    Each unknown edge's walks are listed only up to the degree the bound
    leaves it once every other unknown edge takes its shortest walk.  A
    network the structure refutes (``_refutation``) is still counted in
    full, and its table is exhaustive and carries that witness.

    A state is (rows used, packed monomial, sign).  Each known edge that
    some listed walk uses owns a field of max(max_degree, 1).bit_length()
    bits, in ascending edge order, and a monomial packs to the sum of its
    multiplicities shifted into their fields.  No field overflows into the
    next: pruning keeps every state's degree at or below max_degree, and a
    multiplicity is at most the degree, so it fits its field.  Packing is
    then one-to-one and a sum of packed monomials is the packed product, so
    states merge exactly as the (edge, multiplicity) tuples would.  The
    table keeps the final counts, collections and degrees under these
    packed keys, with the field edges and width to decode them; nothing is
    decoded here.

    ``structure`` is the caller's ``_Structure`` of ``net``, so that a
    search over bounds separates and sweeps the network once; by default
    the table builds its own.
    """
    structure = _Structure(net) if structure is None else structure
    _walk_guards(net, structure, max_degree)
    witness = _refutation(net, structure)
    if structure.no_collection:
        return RepetitionTable(max_degree=max_degree, exhaustive=True, witness=witness)
    exhaustive = witness is not None or max_degree >= structure.completeness_bound
    width = max(max_degree, 1).bit_length()
    least = _least_degrees(net, structure)
    spare = max_degree - sum(least)  # degree a collection may spend beyond its shortest walks
    if spare < 0:
        return RepetitionTable(max_degree=max_degree, exhaustive=exhaustive, width=width, witness=witness)

    b_slot = {b: i for i, b in enumerate(net.excited)}
    c_slot = {c: i for i, c in enumerate(net.measured)}
    n_c = net.n_measured

    # Per unknown edge: its walks in edge-sequence order, each with its
    # (excitation, measurement) row, read off its first and last edges, and
    # its known edges, the walk without its pivot.
    edges = net.edges
    steps: list[list[tuple[Walk, int, tuple[int, ...]]]] = []
    pivots = [i for i, e in enumerate(edges) if not e.known]
    for i, shortest in zip(pivots, least):
        ws = sorted(enumerate_walks(net, structure.block_adjacency, i, shortest + spare))
        steps.append(
            [(w, b_slot[edges[w[0]].src] * n_c + c_slot[edges[w[-1]].dst], tuple(j for j in w if j != i)) for w in ws]
        )
    m = len(steps)

    # Least degree of the remaining unknown edges, for pruning.
    min_rest = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        min_rest[k] = min_rest[k + 1] + least[k]

    # Packed monomials: each known edge some walk uses owns a field of
    # ``width`` bits, in ascending edge order, holding its multiplicity; a
    # walk's known edges pack to the sum of their units.
    fields = sorted({i for walks in steps for _, _, known in walks for i in known})
    unit = {i: 1 << j * width for j, i in enumerate(fields)}

    # One layer per unknown edge.  A state (rows used as a bit mask, packed
    # monomial so far, sign) maps to [collections reaching it, the first of
    # them, its degree]; a new row flips the sign once per used row above it.
    # States are extended in insertion order, each by its fitting walks in
    # edge order, so a state is first inserted with its lexicographically
    # smallest collection.  The fitting walks, each with its new row mask,
    # sign flip, packed monomial and degree, are listed once per layer, rows
    # used and room: a filter of the edge-ordered list, never a reordering.
    layer: dict[tuple[int, int, int], list] = {(0, 0, 1): [1, (), 0]}
    for k, walks in enumerate(steps):
        packed = [(w, row, len(known), sum(map(unit.__getitem__, known))) for w, row, known in walks]
        extended: dict[tuple[int, int, int], list] = {}
        fitting: dict[tuple[int, int], list[tuple[Walk, int, int, int, int]]] = {}
        for (used, mono, sign), (count, coll, degree) in layer.items():
            room = max_degree - degree - min_rest[k + 1]
            options = fitting.get((used, room))
            if options is None:
                options = fitting[used, room] = [
                    (w, used | 1 << row, -1 if (used >> row).bit_count() & 1 else 1, w_mono, w_degree)
                    for w, row, w_degree, w_mono in packed
                    if w_degree <= room and not used >> row & 1
                ]
            for w, new_used, flip, w_mono, w_degree in options:
                key = (new_used, mono + w_mono, sign * flip)
                state = extended.get(key)
                if state is None:
                    extended[key] = [count, coll + (w,), degree + w_degree]
                else:
                    state[0] += count
        layer = extended

    # Every collection uses all rows, so a final state is one (monomial,
    # sign); the table keeps them packed.
    counts: dict[int, int] = {}
    collections: dict[tuple[int, int], tuple[Walk, ...]] = {}
    degrees: dict[int, int] = {}
    for (_, mono, sign), (count, coll, degree) in layer.items():
        collections[mono, sign] = coll
        counts[mono] = counts.get(mono, 0) + sign * count
        degrees[mono] = degree

    return RepetitionTable(
        max_degree=max_degree,
        exhaustive=exhaustive,
        counts=counts,
        collections=collections,
        degrees=degrees,
        fields=tuple(fields),
        width=width,
        witness=witness,
    )


def verdict_from_table(net: NetworkModel, table: RepetitionTable) -> Verdict:
    """Decide identifiability from a repetition table, with an explicit witness.

    A surviving monomial proves identifiability outright; the witness is
    the least survivor by (degree, monomial), with the first collection of
    its count's sign, and only that survivor is decoded.  Otherwise an
    exhaustive table refutes it, with the table's structural witness if it
    has one, and a partial one leaves the outcome inconclusive at this
    bound.  A table with a structural witness is always exhaustive.
    """
    least = table.least_survivor()
    if least is not None:
        mu, r, coll = least
        decision = IDENTIFIABLE
        witness = {
            "monomial": format_monomial(net, mu),
            "repetition": r,
            "walks": [
                {"nodes": [v + 1 for v in walk_nodes(net, w)], "pivot": str(e)}
                for w, e in zip(coll, net.unknown_edges)
            ],
        }
    else:
        decision = NOT_IDENTIFIABLE if table.exhaustive else INCONCLUSIVE
        witness = table.witness
    return Verdict(
        decision,
        GLOBAL_SEPARABLE,
        m_unknown=net.m_unknown,
        max_degree=table.max_degree,
        exhaustive=table.exhaustive,
        witness=witness,
    )


def _least_decided_table(net: NetworkModel, structure: _Structure) -> RepetitionTable:
    """The walk route's default table on a network its structure does not refute: the first bound with a survivor.

    One table per bound d = d0, d0 + 1, ..., up to min(D, 2n), D being
    ``exhaustive_degree_bound`` and d0 the least collection degree,
    stopping at the first table with a survivor.  Entries of degree <= d
    are exact at bound d and the least survivor has the least degree, so
    the survivor, its count and its first collection are the ones the
    table at min(D, 2n) gives; with no survivor the last table is that
    table.  ``structure`` is the walk route's, so the whole search
    separates, sweeps and bounds the network once.
    """
    cap = min(structure.completeness_bound, 2 * net.n)
    degree = min(sum(_least_degrees(net, structure)), cap)
    while True:
        table = repetition_table(net, degree, structure=structure)
        if degree == cap or any(table.counts.values()):
            return table
        degree += 1


def _walk_route(
    net: NetworkModel, max_degree: int | None, decouple_first: bool = False, *, full_table: bool = False
) -> tuple[NetworkModel, RepetitionTable, Verdict]:
    """(network analyzed, repetition table, verdict) of the walk-counting route.

    With ``decouple_first`` the table is built on ``decouple(net)`` (the
    count reads the structure only, never edge values) and the verdict
    carries the decoupled notion.  One ``_Structure`` of the network
    analyzed serves the whole route, and its ``_refutation`` comes first:
    a refuted network gets the empty table at ``max_degree`` (0 by
    default), exhaustive and with that witness, and no walk is listed.  At
    an explicit bound ``full_table`` counts it instead, as
    ``repetition_table`` does, for a caller that prints every entry.  An
    unrefuted network gets its ``repetition_table`` at ``max_degree``, or
    by default ``_least_decided_table``.  Either way the verdict is
    ``verdict_from_table`` of the table.
    """
    target = decouple(net) if decouple_first else net
    if target.m_unknown == 0:
        raise NoUnknownEdgesError()
    structure = _Structure(target)
    _walk_guards(target, structure, max_degree)
    refuted = _refutation(target, structure)
    if refuted is not None and (max_degree is None or not full_table):
        table = RepetitionTable(max_degree=max_degree or 0, exhaustive=True, witness=refuted)
    elif max_degree is None:
        table = _least_decided_table(target, structure)
    else:
        table = repetition_table(target, max_degree, structure=structure)
    verdict = verdict_from_table(target, table)
    if decouple_first:
        verdict = replace(verdict, notion=DECOUPLED_GENERIC)
    return target, table, verdict


def combinatorial_verdict(net: NetworkModel, max_degree: int | None = None) -> Verdict:
    """Identifiability of a separable square network by signed walk counting.

    The structure refutes it first when it can (``_refutation``): "not
    identifiable", exhaustive, at ``max_degree`` or at 0 by default, with
    the structural witness and no walk listed.  Otherwise the table at
    ``max_degree`` decides when it is given, and by default the bounds are
    searched upward from the least collection degree to
    min(``exhaustive_degree_bound``, 2n), stopping at the first survivor
    (``_least_decided_table``).  At every bound the verdict equals
    ``verdict_from_table`` of ``repetition_table`` there.
    """
    return _walk_route(net, max_degree)[2]


def necessary_condition_any_topology(net: NetworkModel, max_degree: int | None = None) -> Verdict:
    """Walk-counting test applied to the decoupled form of an arbitrary network.

    The decoupled form is always separable and square whenever the source
    is square, so the walk count applies to any topology through it, and
    the structure of the lift refutes it first, at every bound, as in
    ``combinatorial_verdict``.  A not-identifiable outcome refutes local
    identifiability of the source (the decoupled notion is necessary for
    the local one); an identifiable outcome certifies the decoupled notion
    only.
    """
    return _walk_route(net, max_degree, decouple_first=True)[2]
