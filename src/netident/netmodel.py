"""Network models: directed graphs with known/unknown edges and excitation/measurement sets.

A network is a directed graph on nodes 0..n-1 where each edge carries a
transfer coefficient from its source node to its sink node.  Edges are
partitioned into *known* coefficients (given a priori) and *unknown* ones
(to be recovered from input-output data).  A subset of nodes is excited by
external signals and a subset is measured.

The edge list order is significant: it fixes the canonical column order of
the unknown edges used by every downstream rank, determinant and sign
computation.  Node indices are 0-based in memory and 1-based in files.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, replace

__all__ = [
    "Edge",
    "NetworkModel",
    "SeparableBlocks",
    "ValidationError",
    "NotSeparableError",
    "NotSquareError",
    "NetworkFormatError",
    "MAX_NODES",
    "separate",
    "is_separable",
    "decouple",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "save_network",
]


class ValidationError(ValueError):
    """A network violates a structural invariant; the message names the invariant and the offending node or edge."""


class NotSeparableError(ValueError):
    """The network admits no excited/measured bipartition.

    The message names the witness, a node that would need to sit in both
    parts, and says why.
    """


class NotSquareError(ValueError):
    """Unknown-edge count does not match the (excitation, measurement) pair count."""

    def __init__(self, net: "NetworkModel"):
        super().__init__(
            "need exactly one unknown edge per (excitation, measurement) pair: "
            f"{net.m_unknown} unknown edges vs {net.n_excited}*{net.n_measured} pairs"
        )


class NetworkFormatError(ValueError):
    """A network file or dict does not match the JSON schema."""


@dataclass(frozen=True, slots=True)
class Edge:
    """Directed edge src -> dst; ``known`` distinguishes given from unknown coefficients.

    ``value`` is an optional concrete coefficient, present only when a file
    carries an evaluation alongside the topology.
    """

    src: int
    dst: int
    known: bool
    value: float | None = None

    def __str__(self) -> str:
        return f"{self.src + 1}->{self.dst + 1}"


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Immutable network: node count, ordered edge list, excited and measured node lists.

    The edge list order is part of the data: the unknown edges, in list
    order, form the canonical column order used by the sensitivity matrix
    and by all permutation-sign bookkeeping.

    A malformed network cannot be built: the constructor (and so
    ``dataclasses.replace``) raises ``ValidationError``, its message naming
    the first invariant broken, unless the node count
    and every node index are integers (not bools), the count is
    non-negative, every index lies in 0..n-1, no edge is a self-loop, no
    ordered pair carries two edges, and neither the excited nor the
    measured list repeats a node.  An integer of another type (numpy's) is
    stored as a plain int, so every route and ``network_to_dict`` see ints.
    """

    n: int
    edges: tuple[Edge, ...]
    excited: tuple[int, ...]
    measured: tuple[int, ...]

    def __init__(self, n, edges, excited, measured):
        # Integers of another type become plain ints; validate rejects anything else.
        edges = tuple(
            e if type(e.src) is type(e.dst) is int else replace(e, src=_plain(e.src), dst=_plain(e.dst)) for e in edges
        )
        object.__setattr__(self, "n", _plain(n))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "excited", tuple(map(_plain, excited)))
        object.__setattr__(self, "measured", tuple(map(_plain, measured)))
        validate(self)

    @property
    def known_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.known)

    @property
    def unknown_edges(self) -> tuple[Edge, ...]:
        """Unknown edges in canonical (edge-list) order."""
        return tuple(e for e in self.edges if not e.known)

    @property
    def m_unknown(self) -> int:
        return sum(1 for e in self.edges if not e.known)

    @property
    def n_excited(self) -> int:
        return len(self.excited)

    @property
    def n_measured(self) -> int:
        return len(self.measured)

    @property
    def is_square(self) -> bool:
        """True when there are exactly as many unknowns as (excitation, measurement) pairs."""
        return self.m_unknown == self.n_excited * self.n_measured


@dataclass(frozen=True)
class SeparableBlocks:
    """A bipartition exhibiting the separable block structure.

    All excited nodes live in ``b_part``, all measured nodes in ``c_part``,
    known edges stay within their part, and every unknown edge crosses from
    ``b_part`` to ``c_part``.  No edge of any kind runs c-to-b.  The two
    node sets are the whole record: the known edges of a block are those
    whose tail lies in its part, and the crossing edges are exactly
    ``net.unknown_edges``.
    """

    b_part: frozenset[int]
    c_part: frozenset[int]


def _is_index(v: object) -> bool:
    """An integer usable as a node index or count: one ``operator.index`` accepts, but not a bool."""
    if isinstance(v, bool):
        return False
    try:
        operator.index(v)
    except TypeError:
        return False
    return True


def _plain(v: object) -> object:
    """An integer of another type than int (numpy's) as a plain int; anything else, bools included, as it is."""
    return operator.index(v) if type(v) is not int and _is_index(v) else v


def validate(net: NetworkModel) -> None:
    """Check the invariants ``NetworkModel`` lists, raising ValidationError on the first violation.

    The constructor calls this, once ``_plain`` has made every integer an
    exact int, so the type alone tells an index; nothing else needs to.
    """
    n = net.n
    if type(n) is not int or n < 0:
        raise ValidationError(f"node count {n!r} is not a non-negative integer")
    seen: set[tuple[int, int]] = set()
    for e in net.edges:
        if not (type(e.src) is type(e.dst) is int):
            raise ValidationError(f"non-integer node index in edge (src={e.src!r}, dst={e.dst!r})")
        for v in (e.src, e.dst):
            if not (0 <= v < n):
                raise ValidationError(f"node index {v + 1} out of range 1..{n} in edge {e}")
        if e.src == e.dst:
            raise ValidationError(f"self-loop at node {e.src + 1}")
        if (e.src, e.dst) in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add((e.src, e.dst))
    for where, nodes in (("excited", net.excited), ("measured", net.measured)):
        for node in nodes:
            if type(node) is not int:
                raise ValidationError(f"non-integer node index {node!r} in {where}")
            if not (0 <= node < n):
                raise ValidationError(f"node index {node + 1} out of range 1..{n} in {where}")
    for role, nodes in (("excited", net.excited), ("measured", net.measured)):
        listed: set[int] = set()
        for node in nodes:
            if node in listed:
                raise ValidationError(f"node {node + 1} {role} twice")
            listed.add(node)


def _cause_text(kind: str, what: int | Edge) -> str:
    """Why ``separate`` forced a component into a part, as its conflict witness words it."""
    if kind in ("excited", "measured"):
        return f"node {what + 1} is {kind}"
    node = what.src if kind == "tail" else what.dst
    return f"node {node + 1} is the {kind} of unknown edge {what}"


def separate(net: NetworkModel) -> SeparableBlocks:
    """Find a separable bipartition, or raise NotSeparableError with a witness.

    Components of the undirected closure of the known edges must be labeled
    as a whole.  A component is forced into the excited part when it holds
    an excited node or the tail of an unknown edge, and into the measured
    part when it holds a measured node or the head of an unknown edge.  A
    component forced both ways is the witness of non-separability.
    Unconstrained components default to the excited part, which makes the
    output deterministic.
    """
    parent = list(range(net.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for e in net.edges:
        if e.known:
            parent[find(e.dst)] = find(e.src)

    # Why each component was forced: root -> (kind, node or edge), worded only for a witness.
    b_cause: dict[int, tuple[str, int | Edge]] = {}
    c_cause: dict[int, tuple[str, int | Edge]] = {}
    for node in net.excited:
        b_cause.setdefault(find(node), ("excited", node))
    for node in net.measured:
        c_cause.setdefault(find(node), ("measured", node))
    for e in net.edges:
        if not e.known:
            b_cause.setdefault(find(e.src), ("tail", e))
            c_cause.setdefault(find(e.dst), ("head", e))

    roots = [find(v) for v in range(net.n)]
    conflict = b_cause.keys() & c_cause.keys()
    if conflict:
        node, root = next((v, root) for v, root in enumerate(roots) if root in conflict)
        raise NotSeparableError(
            f"conflict at node {node + 1}: {_cause_text(*b_cause[root])} but also {_cause_text(*c_cause[root])}"
            " (connected by known edges)"
        )

    b_part = frozenset(v for v, root in enumerate(roots) if root not in c_cause)
    c_part = frozenset(v for v, root in enumerate(roots) if root in c_cause)
    return SeparableBlocks(b_part=b_part, c_part=c_part)


def is_separable(net: NetworkModel) -> bool:
    """True when the network admits a separable bipartition."""
    try:
        separate(net)
    except NotSeparableError:
        return False
    return True


def decouple(net: NetworkModel, seed: int = 0) -> NetworkModel:
    """Build the 2n-node decoupled network.

    Nodes 0..n-1 are the measured copy and carry every edge of ``net``
    marked known; nodes n..2n-1 are the excited copy and carry a
    topology-identical known edge set.  Each unknown edge j->i of ``net``
    becomes the unknown cross edge (n+j)->i.  Excitations move to the
    excited copy; measurements stay on the measured copy.  The result is
    separable by construction.

    ``seed`` only matters when the input edges carry concrete values: the
    measured copy inherits them and the excited copy gets fresh ones drawn
    from the seed by numpy, so the two copies never share coefficient values.
    """
    n = net.n
    rng = None
    if any(e.value is not None for e in net.edges):
        import numpy as np

        rng = np.random.default_rng(seed)

    edges: list[Edge] = []
    for e in net.edges:
        edges.append(Edge(e.src, e.dst, known=True, value=e.value))
    for e in net.edges:
        fresh = float(rng.standard_normal()) if (rng is not None and e.value is not None) else None
        edges.append(Edge(n + e.src, n + e.dst, known=True, value=fresh))
    for e in net.edges:
        if not e.known:
            edges.append(Edge(n + e.src, e.dst, known=False))

    return NetworkModel(
        n=2 * n,
        edges=edges,
        excited=tuple(n + b for b in net.excited),
        measured=net.measured,
    )


# -- JSON file format ---------------------------------------------------------
#
# { "nodes": n,
#   "edges": [{"from": j, "to": i, "known": bool, "value": number?}, ...],
#   "excited": [...], "measured": [...] }
#
# Node indices in files are 1-based.

# Largest node count a file may declare.  The exact routes hold n x n field
# matrices (2n x 2n after decoupling), so the loader refuses a larger count
# before anything of that size is built.
MAX_NODES = 1000


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise NetworkFormatError(msg)


def network_from_dict(data: dict) -> NetworkModel:
    """Parse the JSON dict form, raising NetworkFormatError naming the bad field."""
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("nodes", "edges", "excited", "measured"):
        _require(key in data, f"missing field '{key}'")
    _require(_is_index(data["nodes"]) and data["nodes"] >= 0, "field 'nodes' must be a non-negative integer")
    _require(data["nodes"] <= MAX_NODES, f"field 'nodes' must be at most {MAX_NODES}, got {data['nodes']}")
    _require(isinstance(data["edges"], list), "field 'edges' must be a list")

    edges = []
    for i, raw in enumerate(data["edges"]):
        where = f"edges[{i}]"
        _require(isinstance(raw, dict), f"{where} must be an object")
        for key in ("from", "to", "known"):
            _require(key in raw, f"{where} missing field '{key}'")
        _require(_is_index(raw["from"]), f"{where}.from must be an integer")
        _require(_is_index(raw["to"]), f"{where}.to must be an integer")
        _require(isinstance(raw["known"], bool), f"{where}.known must be a boolean")
        value = raw.get("value")
        # int-float comparison is exact, so an integer past the float range fails here, not in float();
        # JSON true is a Python int, so a bool is refused by name
        _require(
            value is None
            or (isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max),
            f"{where}.value must be a finite number",
        )
        edges.append(
            Edge(
                src=raw["from"] - 1,
                dst=raw["to"] - 1,
                known=raw["known"],
                value=None if value is None else float(value),
            )
        )

    for key in ("excited", "measured"):
        _require(isinstance(data[key], list), f"field '{key}' must be a list")
        _require(all(_is_index(v) for v in data[key]), f"field '{key}' must hold integers")

    try:
        return NetworkModel(
            n=data["nodes"],
            edges=edges,
            excited=tuple(v - 1 for v in data["excited"]),
            measured=tuple(v - 1 for v in data["measured"]),
        )
    except ValidationError as exc:
        raise NetworkFormatError(str(exc)) from exc


def network_to_dict(net: NetworkModel) -> dict:
    """Serialize to the JSON dict form (1-based node indices)."""
    edges = []
    for e in net.edges:
        entry: dict = {"from": e.src + 1, "to": e.dst + 1, "known": e.known}
        if e.value is not None:
            entry["value"] = e.value
        edges.append(entry)
    return {
        "nodes": net.n,
        "edges": edges,
        "excited": [v + 1 for v in net.excited],
        "measured": [v + 1 for v in net.measured],
    }


def load_network(path: str) -> NetworkModel:
    """Read a network file; content that does not parse raises NetworkFormatError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            # bytes that are not UTF-8, an integer literal past the interpreter's digit limit, or nesting past its stack
            raise NetworkFormatError(f"{path}: unreadable JSON: {exc}") from exc
    return network_from_dict(data)


def save_network(net: NetworkModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")
