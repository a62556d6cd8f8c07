"""Brute-force symbolic ground truth for the walk-counting route.

Expands the determinant of the sensitivity matrix of a separable square
network as an integer polynomial in the known-edge variables, with each
closed-loop factor replaced by its truncated power series.  A walk of
length k contributes a monomial of degree exactly k, so truncating the
series at the degree bound leaves every coefficient of total degree at
most the bound exact: the dropped longer walks only touch higher degrees.

Deliberately direct and slow: cumulative matrix powers for the series,
dense permutation expansion for the determinant.  This module is a test
instrument for cross-checking the walk enumeration, not a production path,
hence the small-size guard.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .combinatorial import Monomial, TooLargeError, monomial_degree
from .netmodel import NetworkModel, NotSquareError, separate

__all__ = [
    "MAX_UNKNOWNS",
    "Poly",
    "symbolic_closed_loop",
    "symbolic_det",
    "coefficient",
    "terms_sorted",
]

# The permutation expansion is factorial in the unknown count.
MAX_UNKNOWNS = 6


class Poly:
    """Sparse integer polynomial; keys are frozensets of (variable, power) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({frozenset(): c})

    @classmethod
    def variable(cls, var: int) -> "Poly":
        return cls({frozenset(((var, 1),)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def mul(self, other: "Poly", max_degree: int | None = None) -> "Poly":
        out: dict[frozenset, int] = {}
        for k1, c1 in self.terms.items():
            d1 = monomial_degree(k1)
            for k2, c2 in other.terms.items():
                if max_degree is not None and d1 + monomial_degree(k2) > max_degree:
                    continue
                powers = dict(k1)
                for var, p in k2:
                    powers[var] = powers.get(var, 0) + p
                key = frozenset(powers.items())
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms


def _parity(rows: Sequence[int]) -> int:
    """Sign of a permutation given as its row sequence: +1 for an even inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(rows, 2))
    return 1 if inversions % 2 == 0 else -1


def symbolic_closed_loop(net: NetworkModel, max_length: int) -> list[list[Poly]]:
    """Truncated closed loop of the known edges as a matrix of polynomials.

    Entry [j][i] sums, over the known-edge walks from node i to node j of
    length at most ``max_length``, the product of the walk's edge
    variables.  Variables are edge-list indices.  On a separable network
    its entries within each part are that known block's closed loop.
    Stops early once the running power vanishes (acyclic known edges).
    """
    n = net.n
    total = [[Poly.constant(1) if i == j else Poly.zero() for j in range(n)] for i in range(n)]
    power = [[Poly.constant(1) if i == j else Poly.zero() for j in range(n)] for i in range(n)]
    hops = [(e.dst, e.src, Poly.variable(i)) for i, e in enumerate(net.edges) if e.known]
    for _ in range(max_length):
        nxt = [[Poly.zero() for _ in range(n)] for _ in range(n)]
        moved = False
        for dst, src, var in hops:
            row = power[src]
            for j in range(n):
                if not row[j].is_zero():
                    nxt[dst][j] = nxt[dst][j].add(var.mul(row[j]))
                    moved = True
        if not moved:
            break
        power = nxt
        for i in range(n):
            for j in range(n):
                if not power[i][j].is_zero():
                    total[i][j] = total[i][j].add(power[i][j])
    return total


def symbolic_det(net: NetworkModel, max_degree: int) -> Poly:
    """Determinant of the sensitivity matrix with truncated closed loops.

    Coefficients of total degree <= max_degree are exact.  Guarded to at
    most MAX_UNKNOWNS unknown edges: the expansion visits every permutation.
    One closed loop serves both factors of an entry: [c][head] from the
    head to a measurement, [tail][b] from an excitation to the tail.
    """
    separate(net)  # NotSeparableError on a network that is not separable
    if not net.is_square:
        raise NotSquareError(net)
    m = net.m_unknown
    if m > MAX_UNKNOWNS:
        raise TooLargeError(f"{m} unknown edges exceed the permutation-expansion guard of {MAX_UNKNOWNS}")
    t = symbolic_closed_loop(net, max_degree)
    unknowns = net.unknown_edges
    K: list[list[Poly]] = []
    for b in net.excited:
        for c in net.measured:
            K.append([t[c][e.dst].mul(t[e.src][b], max_degree) for e in unknowns])
    det = Poly.zero()
    for perm in itertools.permutations(range(m)):
        prod = Poly.constant(_parity(perm))
        for r in range(m):
            prod = prod.mul(K[r][perm[r]], max_degree)
            if prod.is_zero():
                break
        det = det.add(prod)
    return det


def coefficient(poly: Poly, mu: Monomial) -> int:
    """Coefficient of the canonical monomial, 0 when absent."""
    return poly.terms.get(frozenset(mu), 0)


def terms_sorted(poly: Poly) -> list[tuple[Monomial, int]]:
    """(monomial, coefficient) pairs in (degree, monomial) order."""
    items = [(tuple(sorted(key)), c) for key, c in poly.terms.items()]
    items.sort(key=lambda kv: (monomial_degree(kv[0]), kv[0]))
    return items
