"""Identifiability verdicts for the unknown edges of a network.

Three notions, each decided by a randomized exact test on the sensitivity
matrix:

* local-generic: the unknown edges are locally recoverable from the
  excitation-to-measurement map at almost every choice of edge values.
  Decided by the generic rank of the sensitivity matrix (full rank or not,
  a dichotomy).
* decoupled-generic: recoverability when the two closed-loop factors
  surrounding the unknown-edge perturbation vary independently.  A
  necessary condition for the local notion, and exactly what the 2n-node
  decoupled construction turns into a separable problem.
* global-separable: for separable networks the local and global questions
  coincide.  On a square sensitivity matrix a nonzero generic determinant
  is full generic rank, so this is the local rank test under the
  separable-square guard, and full rank certifies global identifiability.

Every verdict carries its evidence (rank, seed, witness), so a decision
can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .netmodel import Edge, NetworkModel, decouple
from .numeric import _square_rank, generic_rank

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
    "separable_global_identifiability",
    "check_decoupling_equivalence",
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
    structurally zero columns, a surviving monomial with its walks, or the
    unknown edges no walk can serve.
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


def _reach(adj: list[list[int]], starts: tuple[int, ...]) -> set[int]:
    """Nodes a walk along ``adj`` (successors, or predecessors to walk backwards) reaches from ``starts``."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class _Structure:
    """Reach facts of one network, built per verdict and never kept on the model; each sweep runs once.

    The rank witness reads ``zero_columns``: one sweep from all excitations
    and one into all measurements.  ``no_collection`` adds one per port.
    """

    def __init__(self, net: NetworkModel):
        self.net = net
        self.succ: list[list[int]] = [[] for _ in range(net.n)]
        self.pred: list[list[int]] = [[] for _ in range(net.n)]
        for e in net.edges:
            self.succ[e.src].append(e.dst)
            self.pred[e.dst].append(e.src)
        self._sweeps: dict[tuple[tuple[int, ...], bool], set[int]] = {}

    def sweep(self, starts: tuple[int, ...], backward: bool = False) -> set[int]:
        """Nodes reached from ``starts``, or with ``backward`` the nodes that reach them."""
        key = (starts, backward)
        if key not in self._sweeps:
            self._sweeps[key] = _reach(self.pred if backward else self.succ, starts)
        return self._sweeps[key]

    @cached_property
    def zero_columns(self) -> list[Edge]:
        """Unknown edges whose sensitivity column is zero for every edge value.

        The column multiplies the closed loops from an excitation to the
        tail and from the head to a measurement, and each is identically
        zero exactly when no walk joins its ends.
        """
        from_excited, to_measured = self.sweep(self.net.excited), self.sweep(self.net.measured, True)
        return [e for e in self.net.unknown_edges if e.src not in from_excited or e.dst not in to_measured]

    @cached_property
    def no_collection(self) -> bool:
        """Whether a separable network has no walk collection: a zero column, or a row no walk serves.

        A walk of row (b, c) runs from excitation b to an unknown edge's
        tail and from its head to measurement c.
        """
        if self.zero_columns:
            return True
        into = [self.sweep((c,), True) for c in self.net.measured]
        for b in self.net.excited:
            out_of = self.sweep((b,))
            for to_c in into:
                if not any(e.src in out_of and e.dst in to_c for e in self.net.unknown_edges):
                    return True
        return False


def _rank_verdict(net: NetworkModel, notion: str, rank: int, seed: int) -> Verdict:
    m = net.m_unknown
    if rank == m:
        return Verdict(IDENTIFIABLE, notion, m_unknown=m, seed=seed, rank=rank)
    zero_cols = _Structure(net).zero_columns
    witness = {"zero_columns": [str(e) for e in zero_cols]} if zero_cols else None
    return Verdict(NOT_IDENTIFIABLE, notion, m_unknown=m, seed=seed, rank=rank, witness=witness)


def local_identifiability(net: NetworkModel, seed: int = 0) -> Verdict:
    """Generic local identifiability: full generic rank of the sensitivity matrix.

    The rank is either full for almost all edge values or deficient for all
    of them, so the sampled maximum decides the question outright; there is
    no inconclusive outcome on this route.
    """
    _require_unknowns(net)
    return _rank_verdict(net, LOCAL_GENERIC, generic_rank(net, seed=seed), seed)


def decoupled_identifiability(net: NetworkModel, seed: int = 0) -> Verdict:
    """Generic decoupled identifiability: the two closed-loop factors sampled independently."""
    _require_unknowns(net)
    return _rank_verdict(net, DECOUPLED_GENERIC, generic_rank(net, decoupled=True, seed=seed), seed)


def separable_global_identifiability(net: NetworkModel, seed: int = 0) -> Verdict:
    """Global identifiability for separable square networks: full generic rank under the guard.

    Refuses non-separable input rather than falling back to the local test:
    the global claim is only licensed by the separable block structure,
    where local and global identifiability coincide.  On square input a
    nonzero generic determinant and full generic rank are the same test.
    """
    _require_unknowns(net)
    return _rank_verdict(net, GLOBAL_SEPARABLE, _square_rank(net, seed), seed)


def check_decoupling_equivalence(net: NetworkModel, seed: int = 0) -> bool:
    """Whether the decoupled verdict matches the global verdict of the decoupled form.

    The 2n-node decoupled construction is separable and square whenever the
    source network is square, and its sensitivity matrix coincides entry by
    entry with the decoupled-mode sensitivity matrix of the source, so the
    two decisions are expected to agree on every network.
    """
    direct = decoupled_identifiability(net, seed=seed)
    via_construction = separable_global_identifiability(decouple(net), seed=seed)
    return direct.decision == via_construction.decision
