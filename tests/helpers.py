"""Test-only arithmetic, sampling, monomial, relabeling and call-recording helpers, kept out of the library API.

The field determinant and null space come from ``_factor``, a plain forward
elimination on list rows that shares no code with the library's packed
``numeric.rank_field``, so a rank test can check one against the other.  The
library ranks only a sketch of the sensitivity matrix K; ``sensitivity_matrix``
builds K itself by its definition from whole closed loops, ``unit_solve``
gives those from the library's factor and one packed solve on unit
right-hand sides (``closed_loop`` from edge values), and
``sample_sensitivity`` applies both to the library's own per-sample factors
(``numeric._sample_factors``).  ``pack_reference`` and ``unpack_reference``
lay packed fields out by byte join and byte slices, the reference for
the ``struct`` layout of ``numeric._fields``.  The product, identity, polynomial
evaluation, the permutation-expansion determinant and the largest-minor
rank are written out independently so tests can check the library against
them, and so is the structural rank
bound, from one flow per group with no reach shortcut.  The walk table's
signed count has a reference too, ``repetition_reference``: the layered
count split by sign, keeping the first collection of every state, as the
library ran it before its states merged the two signs.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable

from netident import NetworkModel, netmodel, numeric
from netident.combinatorial import Monomial, Walk, enumerate_walks
from netident.identifiability import _Structure, _disjoint_paths
from netident.numeric import PRIME, _sample_factors
from netident.oracle import Poly


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


def _factor(A: list[list[int]]) -> tuple[int, int, list[int], list[int], list[list[int]]]:
    """Forward elimination modulo PRIME: (rank, det, pivot columns, row order, factor rows).

    Column by column, the first row at or below the current one with a
    nonzero entry is swapped up as pivot, and each row below it is cleared
    by subtracting a multiple of the pivot row from the columns right of
    the pivot; the multiple itself is stored in the cleared entry.  Nothing
    above a pivot is touched, and elimination stops once every row holds a
    pivot.

    Row k of the result holds U (the echelon form) from column
    ``pivot_cols[k]`` on, and L's multipliers in the pivot columns to its
    left; ``perm[k]`` is the row of A moved to row k.  For square
    nonsingular A that is A[perm[k]] = (L U)[k] with L unit lower
    triangular.  ``det`` is the determinant when A is square, and 0
    whenever some row is left without a pivot.
    """
    rows = [[x % PRIME for x in row] for row in A]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    perm = list(range(nrows))
    pivot_cols: list[int] = []
    det = 1
    for col in range(ncols):
        rank = len(pivot_cols)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            perm[rank], perm[piv] = perm[piv], perm[rank]
            det = PRIME - det
        pivot = rows[rank][col]
        det = (det * pivot) % PRIME
        inv = pow(pivot, -1, PRIME)
        right = rows[rank][col + 1 :]
        for r in range(rank + 1, nrows):
            row = rows[r]
            f = row[col]
            if f:
                f = row[col] = (f * inv) % PRIME
                row[col + 1 :] = [(x - f * y) % PRIME for x, y in zip(row[col + 1 :], right)]
        pivot_cols.append(col)
    if len(pivot_cols) < nrows:
        det = 0
    return len(pivot_cols), det, pivot_cols, perm, rows


def det_field(A: list[list[int]]) -> int:
    """Determinant of a square matrix over the prime field; 0 on singular input."""
    return _factor(A)[1]


def sample_sensitivity(net: NetworkModel, rng: random.Random) -> list[list[int]]:
    """The full sensitivity matrix K at the next sample ``generic_rank`` would draw from ``rng``, before its sketch weights."""
    return sensitivity_matrix(net, unit_solve(_sample_factors(net, rng)))


def loop_factor(G: list[list[int]]) -> list[tuple]:
    """The library's sparse factor of I - G for a hand-made square G, whose nonzeros become the dict rows."""
    n = len(G)
    rows = [{j: x for j in range(n) if (x := (int(i == j) - G[i][j]) % PRIME)} for i in range(n)]
    return numeric._sparse_factor(rows)


def unit_solve(steps: list[tuple], transposed: bool = False) -> list[list[int]]:
    """The packed solve on unit right-hand sides, one field per node, unpacked: T, or T's transpose when ``transposed``.

    Field k of the direct solve's entry j is T[j][k]; field k of the
    transposed solve's entry j is T[k][j].
    """
    n = len(steps)
    width, _, reduce, layout = numeric._fields(n, n + 1)
    units = {k: 1 << 8 * width * k for k in range(n)}
    return [list(numeric._unpack(x, layout)) for x in numeric._solve(steps, units, reduce, transposed)]


def pack_reference(values: Iterable[int], width: int) -> int:
    """``numeric._pack`` by byte join: each value as a little-endian field of ``width`` bytes, the first lowest."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def unpack_reference(r: int, width: int, count: int) -> list[int]:
    """``numeric._unpack`` by byte slices: the ``count`` fields of ``width`` bytes each of ``r``, lowest first."""
    data = r.to_bytes(width * count, "little")
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, width * count, width)]


def closed_loop(net: NetworkModel, values) -> list[list[int]]:
    """(I - G)^{-1} over the field at these edge values; SingularMatrixError when I - G is singular."""
    return unit_solve(numeric._loop_factor(net, values))


def sensitivity_matrix(net: NetworkModel, T: list[list[int]]) -> list[list[int]]:
    """The sensitivity matrix K by its definition, from the whole closed loop T.

    Rows are (excitation, measurement) pairs at flat index
    b_idx * n_measured + c_idx; columns are the unknown edges in edge-list
    order.  Entry at row (b, c), column for unknown edge a is
    T[c, head(a)] * T[tail(a), b]: the closed loop propagates the edge's
    head to the measurement and the excitation to its tail.
    """
    return [
        [T[c][e.dst] * T[e.src][b] % PRIME for e in net.unknown_edges]
        for b in net.excited
        for c in net.measured
    ]


def kernel_field(A: list[list[int]]) -> list[list[int]]:
    """Basis of the right null space over the prime field (one vector per free column).

    Back-substitutes each free column through the echelon rows of the factor.
    """
    if not A or not A[0]:
        return []
    ncols = len(A[0])
    _, _, pivot_cols, _, rows = _factor(A)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[free] = 1
        for r in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[r]
            s = sum(rows[r][j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc] = (-s * pow(rows[r][pc], -1, PRIME)) % PRIME
        basis.append(vec)
    return basis


def leibniz_det(A: list[list[int]]) -> int:
    """Determinant modulo PRIME as the signed sum over all permutations."""
    n = len(A)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * A[i][p[i]] % PRIME
        total = (total + term) % PRIME
    return total


def minor_rank(A: list[list[int]]) -> int:
    """Rank modulo PRIME as the size of the largest square submatrix with nonzero ``leibniz_det``."""
    nrows, ncols = len(A), len(A[0]) if A else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if leibniz_det([[A[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def eval_poly(poly: Poly, values: dict[int, int], modulus: int) -> int:
    """Evaluate at integer points modulo ``modulus`` (variables are edge indices)."""
    total = 0
    for key, c in poly.terms.items():
        term = c % modulus
        for var, p in key:
            term = (term * pow(values[var], p, modulus)) % modulus
        total = (total + term) % modulus
    return total


def monomial_of(edge_indices: Iterable[int]) -> Monomial:
    """The canonical monomial of a multiset of known-edge indices: (index, multiplicity) pairs, ascending."""
    counts: dict[int, int] = {}
    for i in sorted(edge_indices):
        counts[i] = counts.get(i, 0) + 1
    return tuple(counts.items())


def permute(net: NetworkModel, perm: list[int]) -> NetworkModel:
    """Renumber nodes by ``perm`` (old index -> new index), preserving list orders."""
    return NetworkModel(
        n=net.n,
        edges=tuple(replace(e, src=perm[e.src], dst=perm[e.dst]) for e in net.edges),
        excited=tuple(perm[v] for v in net.excited),
        measured=tuple(perm[v] for v in net.measured),
    )


def rank_bound_candidates(net: NetworkModel) -> list[dict]:
    """The candidates of ``_Structure.rank_bound`` in its tie order, each group ranked by ``_disjoint_paths`` alone.

    A group of unknown edges with heads H and tails J spans at most
    rho(H -> C) * rho(B -> J) columns, rho the flow.  ``heads`` and
    ``tails`` sum that over the groups of one head or one tail, and
    ``product`` takes all unknown edges as one group; none reads a reach
    sweep or skips a head or tail, and every group runs both flows.
    """
    succ: list[list[int]] = [[] for _ in range(net.n)]
    for e in net.edges:
        succ[e.src].append(e.dst)

    def group_rank(edges: list) -> int:
        return _disjoint_paths(succ, [e.dst for e in edges], net.measured) * _disjoint_paths(
            succ, net.excited, [e.src for e in edges]
        )

    candidates = []
    for by, key in (("heads", lambda e: e.dst), ("tails", lambda e: e.src)):
        groups: dict[int, list] = {}
        for e in net.unknown_edges:
            groups.setdefault(key(e), []).append(e)
        side = {"bound": 0, "by": by}
        for v, edges in groups.items():
            rank = group_rank(edges)
            side["bound"] += rank
            if rank < len(edges) and "node" not in side:
                side.update(node=v + 1, unknown_edges=len(edges), rank=rank)
        candidates.append(side)
    into = _disjoint_paths(succ, [e.dst for e in net.unknown_edges], net.measured)
    out_of = _disjoint_paths(succ, net.excited, [e.src for e in net.unknown_edges])
    candidates.append({"bound": into * out_of, "by": "product", "heads_to_measured": into, "excited_to_tails": out_of})
    return candidates


def rank_bound_reference(net: NetworkModel) -> dict:
    """``_Structure.rank_bound`` recomputed: the least of ``rank_bound_candidates``, the first on a tie."""
    return min(rank_bound_candidates(net), key=lambda side: side["bound"])


def repetition_reference(
    net: NetworkModel, max_degree: int
) -> tuple[dict[Monomial, int], dict[tuple[Monomial, int], tuple[Walk, ...]]]:
    """The walk table of a separable square net by a sign-split layered count: (entries, first collections).

    ``entries`` maps each monomial of degree <= max_degree to its signed
    collection count, cancelled ones included, and ``first`` maps each
    (monomial, sign) that some collection has to the lexicographically
    first such collection; both list their keys in the order of those
    first collections.  A state is (rows used, packed monomial, sign) and
    carries [collections reaching it, the first of them, its degree]; the
    walks come from ``enumerate_walks`` within the degree each unknown edge
    has left once the others take their shortest walks.
    """
    structure = _Structure(net)
    if structure.no_collection:
        return {}, {}
    least = structure.least_degrees
    spare = max_degree - sum(least)
    if spare < 0:
        return {}, {}
    width = max(max_degree, 1).bit_length()
    edges = net.edges
    pivots = [i for i, e in enumerate(edges) if not e.known]
    steps = []
    for i, shortest in zip(pivots, least):
        walks = sorted(enumerate_walks(net, structure.known_adjacency, i, shortest + spare))
        b_idx = [net.excited.index(edges[w[0]].src) for w in walks]
        c_idx = [net.measured.index(edges[w[-1]].dst) for w in walks]
        rows = [b * net.n_measured + c for b, c in zip(b_idx, c_idx)]
        steps.append([(w, row, [j for j in w if j != i]) for w, row in zip(walks, rows)])
    fields = sorted({i for walks in steps for _, _, known in walks for i in known})
    unit = {i: 1 << j * width for j, i in enumerate(fields)}
    min_rest = [0] * (len(steps) + 1)
    for k in range(len(steps) - 1, -1, -1):
        min_rest[k] = min_rest[k + 1] + least[k]

    layer: dict[tuple[int, int, int], list] = {(0, 0, 1): [1, (), 0]}
    for k, walks in enumerate(steps):
        extended: dict[tuple[int, int, int], list] = {}
        for (used, mono, sign), (count, coll, degree) in layer.items():
            for w, row, known in walks:
                if used >> row & 1 or degree + len(known) + min_rest[k + 1] > max_degree:
                    continue
                flip = -1 if (used >> row).bit_count() & 1 else 1
                key = (used | 1 << row, mono + sum(unit[i] for i in known), sign * flip)
                if key in extended:
                    extended[key][0] += count
                else:
                    extended[key] = [count, coll + (w,), degree + len(known)]
        layer = extended

    mask = (1 << width) - 1

    def decode(packed: int) -> Monomial:
        return tuple((i, c) for j, i in enumerate(fields) if (c := packed >> j * width & mask))

    entries: dict[Monomial, int] = {}
    first: dict[tuple[Monomial, int], tuple[Walk, ...]] = {}
    for (_, mono, sign), (count, coll, _) in layer.items():
        mu = decode(mono)
        first[mu, sign] = coll
        entries[mu] = entries.get(mu, 0) + sign * count
    return entries, first


def perfbench_inputs():
    """The benchmark's own seeded network generator, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calls(fn, action) -> list[dict]:
    """The arguments of each call of ``fn`` during ``action()``, keyword-only ones included, under whatever name it is reached."""
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    seen: list[dict] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append({name: frame.f_locals[name] for name in names})

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return seen


def validate_calls(action) -> int:
    """How many times ``netmodel.validate`` runs during ``action()``."""
    return len(calls(netmodel.validate, action))
