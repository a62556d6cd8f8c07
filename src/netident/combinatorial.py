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
collections that reach the same (rows used, monomial so far) state into
one signed count: the sign of a pairing only multiplies a count, so
collections of opposite signs share a state, and no collection is kept.
Within the count a monomial is one packed integer, a bit field per known
edge holding its multiplicity, so extending a state is one addition.  The
table keeps its counts under those packed keys and decodes only the least
surviving monomial when it is built; the ``Monomial`` tuples of every
entry are decoded once, when the table is first read.  States and walks are
visited in order, so the table lists its monomials in the order of their
lexicographically first collections.  The one collection the verdict
prints, the first of the least survivor's sign, is rebuilt after the count
by one ordered search over the same walk lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Iterable

from .identifiability import (
    DECOUPLED_GENERIC,
    GLOBAL_SEPARABLE,
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    Verdict,
    _require_unknowns,
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


def enumerate_walks(net: NetworkModel, adjacency: dict, pivot: int, max_degree: int) -> list[Walk]:
    """All walks through the unknown edge ``net.edges[pivot]`` with at most ``max_degree`` known edges.

    A walk is a known-edge prefix, the pivot, then a known-edge suffix.
    The one bound caps prefix and suffix together, so no walk above it is
    ever built.  ``adjacency`` is the known-edge graph
    (``_Structure.known_adjacency``), along which a prefix stays in the
    excited block and a suffix in the measured one.
    """
    e = net.edges[pivot]
    prefixes = [sorted(_walks_between(adjacency, b, e.src, max_degree), key=len) for b in net.excited]
    shortest = min((len(ps[0]) for ps in prefixes if ps), default=None)
    if shortest is None:
        return []
    walks: list[Walk] = []
    for c in net.measured:
        for suffix in _walks_between(adjacency, e.dst, c, max_degree - shortest):
            room = max_degree - len(suffix)
            for ps in prefixes:
                for prefix in ps:
                    if len(prefix) > room:
                        break
                    walks.append(prefix + (pivot,) + suffix)
    return walks


def _decode(packed: int, fields: tuple[int, ...], width: int) -> Monomial:
    """The monomial a packed one holds: (edge index, multiplicity) per nonzero field of ``width`` bits."""
    mask = (1 << width) - 1
    return tuple((i, c) for j, i in enumerate(fields) if (c := packed >> j * width & mask))


@dataclass(frozen=True)
class RepetitionTable:
    """Signed collection counts per monomial, up to a total-degree bound.

    Entries that cancelled to zero are retained: a cancellation is exactly
    the phenomenon the count is after.  ``exhaustive`` is true when
    ``max_degree`` reaches ``exhaustive_degree_bound``, where an all-zero
    table proves the determinant zero, and at every bound when the
    structure already proves it (``witness``).

    The count is held packed, as ``repetition_table`` leaves it: ``counts``
    maps each packed monomial to its signed count, the sum over its
    collections of the parity of their pairings.  A collection is one walk
    per unknown edge, the k-th through the k-th unknown edge in net.edges
    order.  A packed monomial holds the multiplicity of ``fields[j]`` in
    bits j * width up to (j + 1) * width.  ``entries`` is the same dict
    keyed by ``Monomial`` tuples, decoded on first read.  Both list their
    keys in the order of each monomial's lexicographically first
    collection by edge sequence, of either sign.  ``survivor`` is the
    nonzero entry least by (degree, monomial), decoded, as (monomial,
    count, first collection of its count's sign), the one collection the
    table keeps; None when every entry cancelled.

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
    fields: tuple[int, ...] = ()
    width: int = 1
    witness: dict | None = None
    survivor: tuple[Monomial, int, tuple[Walk, ...]] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def entries(self) -> dict[Monomial, int]:
        return {_decode(packed, self.fields, self.width): r for packed, r in self.counts.items()}

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
    """The walk route's input guards, in order: some unknown edge, separable, square, not too large, and no negative bound."""
    _require_unknowns(net)
    structure.blocks  # NotSeparableError on a network that is not separable
    if not net.is_square:
        raise NotSquareError(net)
    if net.m_unknown > MAX_WALK_UNKNOWNS:
        raise TooLargeError(f"{net.m_unknown} unknown edges exceed the walk-route guard of {MAX_WALK_UNKNOWNS}")
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be >= 0")


def _walk_layers(
    net: NetworkModel, structure: _Structure, spare: int, width: int
) -> tuple[list[list[tuple[Walk, int, int, int]]], tuple[int, ...]]:
    """Per unknown edge in net.edges order, its walks as (walk, row, degree, packed monomial), and the field edges.

    Each layer is in edge-sequence order; the row is the walk's
    (excitation, measurement) pair and the monomial its known edges.  An
    edge's walks are listed up to its least degree
    (``_Structure.least_degrees``) plus ``spare``, the degree the bound
    leaves it once every other unknown edge takes its shortest walk.  Each
    known edge some listed walk uses owns a field of ``width`` bits, in
    ascending edge order, holding its multiplicity.
    """
    b_slot = {b: i for i, b in enumerate(net.excited)}
    c_slot = {c: i for i, c in enumerate(net.measured)}
    n_c = net.n_measured
    edges = net.edges
    pivots = [i for i, e in enumerate(edges) if not e.known]
    steps = [
        sorted(enumerate_walks(net, structure.known_adjacency, i, shortest + spare))
        for i, shortest in zip(pivots, structure.least_degrees)
    ]
    fields = sorted(set().union(*chain.from_iterable(steps)).difference(pivots))
    # A walk packs to the sum of its edges' units, its one pivot's unit being 0.
    unit = dict.fromkeys(pivots, 0)
    unit.update((i, 1 << j * width) for j, i in enumerate(fields))
    layers = [
        [
            (w, b_slot[edges[w[0]].src] * n_c + c_slot[edges[w[-1]].dst], len(w) - 1, sum(map(unit.__getitem__, w)))
            for w in walks
        ]
        for walks in steps
    ]
    return layers, tuple(fields)


def _least_packed(survivors: list[tuple[int, int]], width: int) -> int:
    """The packed monomial least by (degree, monomial) among nonempty (degree, packed monomial) pairs.

    Among monomials of one degree none is a prefix of another, so the least
    one is found field by field from the lowest edge up: a multiplicity
    there beats none, which leaves the field to a higher edge, and a smaller
    multiplicity beats a larger one.  Nothing is decoded.
    """
    low = min(survivors)[0]
    least = [packed for degree, packed in survivors if degree == low]
    mask, shift = (1 << width) - 1, 0
    while len(least) > 1:
        lowest = min((c for packed in least if (c := packed >> shift & mask)), default=0)
        if lowest:
            least = [packed for packed in least if packed >> shift & mask == lowest]
        shift += width
    return least[0]


def _first_collection(
    layers: list[list[tuple[Walk, int, int, int]]], guards: int, target: int, sign: int
) -> tuple[Walk, ...] | None:
    """The lexicographically first collection with packed monomial ``target`` and pairing sign ``sign``; None if none.

    A depth-first search over ``_walk_layers``, each layer in edge order,
    so the first complete collection it meets is the least.  ``guards``
    holds every field's top bit, which no monomial uses: with the guards
    set in the remainder of the target, subtracting a walk's monomial
    clears the guard of exactly the fields it overfills.  A dead (rows
    used, remainder, sign) is never searched twice, and an explicit stack
    nests no call per unknown edge.
    """
    m = len(layers)
    dead: set[tuple[int, int, int]] = set()
    chosen: list[Walk] = []
    frames = [(0, target | guards, 1, iter(layers[0]))]
    while frames:
        used, rest, parity, walks = frames[-1]
        nxt = len(chosen) + 1  # the layer a walk of this one leads to
        for w, row, _, w_mono in walks:
            left = rest - w_mono
            if used >> row & 1 or left & guards != guards:
                continue
            flipped = -parity if (used >> row).bit_count() & 1 else parity
            if nxt == m:
                if left == guards and flipped == sign:
                    return (*chosen, w)
                continue
            key = (used | 1 << row, left, flipped)
            if key not in dead:
                chosen.append(w)
                frames.append((*key, iter(layers[nxt])))
                break
        else:
            dead.add((used, rest, parity))
            frames.pop()
            if chosen:
                chosen.pop()
    return None


def repetition_table(net: NetworkModel, max_degree: int, *, structure: _Structure | None = None) -> RepetitionTable:
    """Signed count of bounded walk collections per monomial.

    One loop over the unknown edges, in net.edges order, extends every
    partial collection state by each walk of that edge (``_walk_layers``)
    that fits the remaining degree and uses a free (excitation,
    measurement) row.  Counts for every monomial of degree <= max_degree
    are exact; raising the bound never changes them, it only adds higher
    entries.  Every collection uses every unknown edge and every row, so an
    unknown edge or a row that no walk serves leaves the table empty at
    every bound, and no walk is listed.  A network the structure refutes
    (``_Structure.refutation``) is still counted in full, and its table is
    exhaustive and carries that witness.

    A state is (rows used, packed monomial) and holds the signed count of
    the collections reaching it, cancelled states included; no collection
    is kept.  A field is max(max_degree, 1).bit_length() + 1 bits wide, and
    pruning keeps every degree, so every multiplicity, at or below
    max_degree: no field overflows, packing is one-to-one, a sum of packed
    monomials is the packed product, and each field's top bit is free as a
    guard for the search.  States and walks are extended in order, so a
    state is first inserted by the lexicographically first collection
    reaching it, of either sign, and the table lists its monomials in the
    order of their first collections.  The least survivor
    (``_least_packed``) gets the first collection of its count's sign from
    one search over the same walks (``_first_collection``), and it is the
    one monomial decoded here.

    ``structure`` is the caller's ``_Structure`` of ``net``, so that a
    search over bounds separates, sweeps and refutes the network, and
    lists its known edges, once; by default the table builds its own.
    """
    structure = _Structure(net) if structure is None else structure
    _walk_guards(net, structure, max_degree)
    witness = structure.refutation
    if structure.no_collection:
        return RepetitionTable(max_degree=max_degree, exhaustive=True, witness=witness)
    exhaustive = witness is not None or max_degree >= structure.completeness_bound
    width = max(max_degree, 1).bit_length() + 1
    least = structure.least_degrees
    spare = max_degree - sum(least)  # degree a collection may spend beyond its shortest walks
    if spare < 0:
        return RepetitionTable(max_degree=max_degree, exhaustive=exhaustive, width=width, witness=witness)
    layers, fields = _walk_layers(net, structure, spare, width)
    m = len(layers)

    # Least degree of the remaining unknown edges, for pruning.
    min_rest = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        min_rest[k] = min_rest[k + 1] + least[k]

    # One layer per unknown edge.  A state (rows used as a bit mask, packed
    # monomial so far) maps to [signed count, degree]; a new row flips the
    # sign once per used row above it.  The fitting walks, each with its new
    # row mask, sign flip, packed monomial and degree, are listed once per
    # layer, rows used and room: a filter of the edge-ordered list.
    layer: dict[tuple[int, int], list[int]] = {(0, 0): [1, 0]}
    for k, walks in enumerate(layers):
        extended: dict[tuple[int, int], list[int]] = {}
        fitting: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        for (used, mono), (count, degree) in layer.items():
            room = max_degree - degree - min_rest[k + 1]
            options = fitting.get((used, room))
            if options is None:
                options = fitting[used, room] = [
                    (used | 1 << row, -1 if (used >> row).bit_count() & 1 else 1, w_mono, w_degree)
                    for _, row, w_degree, w_mono in walks
                    if w_degree <= room and not used >> row & 1
                ]
            for new_used, flip, w_mono, w_degree in options:
                key = (new_used, mono + w_mono)
                state = extended.get(key)
                if state is None:
                    extended[key] = [flip * count, degree + w_degree]
                else:
                    state[0] += flip * count
        layer = extended

    # Every collection uses all rows, so a final state is one monomial.
    counts = {mono: count for (_, mono), (count, _) in layer.items()}
    survivors = [(degree, mono) for (_, mono), (count, degree) in layer.items() if count]
    survivor = None
    if survivors:
        least = _least_packed(survivors, width)
        guards = ((1 << width * len(fields)) - 1) // ((1 << width) - 1) << width - 1  # every field's top bit
        count = counts[least]
        survivor = _decode(least, fields, width), count, _first_collection(layers, guards, least, 1 if count > 0 else -1)

    return RepetitionTable(
        max_degree=max_degree,
        exhaustive=exhaustive,
        counts=counts,
        fields=fields,
        width=width,
        witness=witness,
        survivor=survivor,
    )


def verdict_from_table(net: NetworkModel, table: RepetitionTable) -> Verdict:
    """Decide identifiability from a repetition table, with an explicit witness.

    A surviving monomial proves identifiability outright; the witness is
    the least survivor by (degree, monomial), with the first collection of
    its count's sign, as the table holds it.  Otherwise an exhaustive table
    refutes it, with the table's structural witness if it has one, and a
    partial one leaves the outcome inconclusive at this bound.  A table
    with a structural witness is always exhaustive.
    """
    if table.survivor is not None:
        mu, r, coll = table.survivor
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
    degree = min(sum(structure.least_degrees), cap)
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
    analyzed serves the whole route, and its ``refutation`` comes first:
    a refuted network gets the empty table at ``max_degree`` (0 by
    default), exhaustive and with that witness, and no walk is listed.  At
    an explicit bound ``full_table`` counts it instead, as
    ``repetition_table`` does, for a caller that prints every entry.  An
    unrefuted network gets its ``repetition_table`` at ``max_degree``, or
    by default ``_least_decided_table``.  Either way the verdict is
    ``verdict_from_table`` of the table.
    """
    target = decouple(net) if decouple_first else net
    structure = _Structure(target)
    _walk_guards(target, structure, max_degree)
    refuted = structure.refutation
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

    The structure refutes it first when it can (``_Structure.refutation``):
    "not identifiable", exhaustive, at ``max_degree`` or at 0 by default,
    with the structural witness and no walk listed.  Otherwise the table at
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
