"""Test-only arithmetic and relabeling helpers, kept out of the library API.

The field determinant and null space read the library's own elimination
(``numeric._row_reduce``); the product, identity and polynomial evaluation
are written out independently so tests can check the library against them.
"""

from __future__ import annotations

from dataclasses import replace

from netident import NetworkModel, Poly
from netident.numeric import PRIME, _row_reduce


def identity_field(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_field(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        row = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cols):
                    row[j] = (row[j] + a * Bk[j]) % PRIME
    return out


def det_field(A: list[list[int]]) -> int:
    """Determinant of a square matrix over the prime field; 0 on singular input."""
    return _row_reduce(A)[1]


def kernel_field(A: list[list[int]]) -> list[list[int]]:
    """Basis of the right null space over the prime field (one vector per free column)."""
    if not A or not A[0]:
        return []
    ncols = len(A[0])
    _, _, pivot_cols, rows = _row_reduce(A)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivot_cols):
            vec[pc] = (-rows[r][free]) % PRIME
        basis.append(vec)
    return basis


def eval_poly(poly: Poly, values: dict[int, int], modulus: int) -> int:
    """Evaluate at integer points modulo ``modulus`` (variables are edge indices)."""
    total = 0
    for key, c in poly.terms.items():
        term = c % modulus
        for var, p in key:
            term = (term * pow(values[var], p, modulus)) % modulus
        total = (total + term) % modulus
    return total


def permute(net: NetworkModel, perm: list[int]) -> NetworkModel:
    """Renumber nodes by ``perm`` (old index -> new index), preserving list orders."""
    return NetworkModel(
        n=net.n,
        edges=tuple(replace(e, src=perm[e.src], dst=perm[e.dst]) for e in net.edges),
        excited=tuple(perm[v] for v in net.excited),
        measured=tuple(perm[v] for v in net.measured),
    )
