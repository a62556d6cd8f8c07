"""Exact matrix arithmetic over a prime field for identifiability testing.

One scalar kind: integers modulo the prime 2^61 - 1, held as plain Python
ints.  Rank and determinant answers are exact per sample, and the
probability that a random sample misses the generic value is bounded by
Schwartz-Zippel.  There are two eliminations, one per kind of matrix.  The
closed loop I - G is sparse: ``_sparse_factor`` factors it straight from
the edge list, on dict rows in a fill-reducing (Markowitz) pivot order,
and its factors give rows and columns of T = (I - G)^{-1} by solves that
touch only the stored nonzeros, so a sample of the sensitivity matrix
needs one factorization plus one solve per excited and per measured node
instead of the full inverse.  The sensitivity matrix K is dense by
construction, and ``rank_field`` ranks it on packed rows: each row is one
big integer with a field per column, so clearing a row against a pivot
row is one multiply-add, and its fields are reduced modulo p all at once
by Mersenne folds.  K has one row per (excitation, measurement) pair but
rank at most m, the number of unknown edges, so a taller K is ranked
through an m x m sketch of it, built from the same solves without
forming K.

The identifiability test is a polynomial identity in the edge values, so
drawing the values from a large prime field instead of the complex numbers
decides the same rank/determinant dichotomy; the field is a test device,
not a model of the signals.  The floating-point power-series check of the
closed loop lives in ``netident.series``.
"""

from __future__ import annotations

import operator
import random

from .netmodel import NetworkModel, NotSquareError, separate

__all__ = [
    "PRIME",
    "RESAMPLE_BUDGET",
    "FAILURE_BOUND",
    "SingularMatrixError",
    "AllSamplesSingularError",
    "random_field_values",
    "network_matrix",
    "closed_loop",
    "sensitivity_matrix",
    "rank_field",
    "generic_rank",
    "generic_det_nonzero",
]

PRIME = (1 << 61) - 1
RESAMPLE_BUDGET = 10
# Largest probability that a rank sampled by ``generic_rank`` is below the generic rank.
FAILURE_BOUND = 2.0**-40


class SingularMatrixError(ArithmeticError):
    """I - G is not invertible at this sample; the caller should resample."""


class AllSamplesSingularError(ArithmeticError):
    """A sample exhausted its resample budget on singular closed loops."""


def random_field_values(net: NetworkModel, rng: random.Random) -> list[int]:
    """One value per edge, in edge order, uniform over the p - 1 nonzero field elements.

    Known edges get random values too: identifiability is generic over all
    nonzero entries, and "known" only means the procedure is told the value.
    ``getrandbits(61)`` is uniform on 0..2^61 - 1 = 0..PRIME; redrawing 0
    and PRIME leaves 1..PRIME - 1 equally likely.
    """
    return _nonzero_values(rng, len(net.edges))


def _nonzero_values(rng: random.Random, count: int) -> list[int]:
    """``count`` values uniform over the nonzero field elements, drawn as ``random_field_values`` draws them."""
    values = []
    for _ in range(count):
        v = rng.getrandbits(61)
        while v == 0 or v == PRIME:
            v = rng.getrandbits(61)
        values.append(v)
    return values


def network_matrix(net: NetworkModel, values) -> list[list]:
    """n x n matrix with entry [i][j] = ``values[k]`` for edge k = j->i, 0 where absent.

    Entries are placed as given; the field routines reduce them modulo PRIME.
    """
    G = [[0] * net.n for _ in range(net.n)]
    for e, v in zip(net.edges, values):
        G[e.dst][e.src] = v
    return G


def _loop_rows(n: int, entries) -> list[dict[int, int]]:
    """I - G as one dict per row, column -> nonzero value modulo PRIME.

    ``entries`` are G's nonzero entries as (row, column, value); a later
    entry at the same position replaces an earlier one, as in
    ``network_matrix``.
    """
    rows = [{i: 1} for i in range(n)]
    for i, j, v in entries:
        x = ((i == j) - v) % PRIME
        if x:
            rows[i][j] = x
        else:
            rows[i].pop(j, None)
    return rows


def _sparse_factor(rows: list[dict[int, int]]) -> list[tuple]:
    """Sparse LU of a square matrix given as dict rows, which it consumes.

    Each pivot follows the Markowitz rule on the entries present: the
    remaining column with the fewest entries, then the row in it with the
    fewest entries, ties to the lowest index, so the order is a function
    of the matrix alone.  Every other row holding the pivot column is
    cleared by a multiple of the pivot row; an entry that cancels to 0 is
    deleted, so a pivot is never 0.  A column left with no entry raises
    SingularMatrixError.

    Returns one step per pivot, in order: (row r, column c, inverse of the
    pivot, row operations [(i, f)] meaning row i -= f * row r, and the
    pivot row's other entries [(j, u)], all in columns pivoted later).
    """
    n = len(rows)
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    remaining = list(range(n))  # columns not yet pivoted, ascending
    steps = []
    for _ in range(n):
        counts = [len(cols[j]) for j in remaining]
        c = remaining.pop(counts.index(min(counts)))
        in_col = cols[c]
        if not in_col:
            raise SingularMatrixError("matrix not invertible over the prime field")
        r = min((len(rows[i]), i) for i in in_col)[1]
        pivot_row = rows[r]
        for j in pivot_row:
            cols[j].discard(r)
        inv = pow(pivot_row.pop(c), -1, PRIME)
        upper = list(pivot_row.items())
        ops = []
        for i in in_col:
            row = rows[i]
            f = row.pop(c) * inv % PRIME
            ops.append((i, f))
            for j, u in upper:
                x = row.get(j)
                if x is None:
                    row[j] = -f * u % PRIME
                    cols[j].add(i)
                else:
                    x = (x - f * u) % PRIME
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(i)
        in_col.clear()
        steps.append((r, c, inv, ops, upper))
    return steps


def _solve_columns(steps: list[tuple], targets) -> dict[int, list[int]]:
    """Column b of the inverse for each b in ``targets``: the row operations on e_b, then back-substitution."""
    n = len(steps)
    out = {}
    for b in targets:
        z = [0] * n
        z[b] = 1
        for r, _, _, ops, _ in steps:
            zr = z[r]
            if zr:
                for i, f in ops:
                    z[i] = (z[i] - f * zr) % PRIME
        x = [0] * n
        for r, c, inv, _, upper in reversed(steps):
            s = z[r]
            for j, u in upper:
                s -= u * x[j]
            x[c] = s * inv % PRIME
        out[b] = x
    return out


def _solve_rows(steps: list[tuple], targets) -> dict[int, list[int]]:
    """Row c of the inverse for each c in ``targets``: a scatter solve against U^T, then the row operations reversed."""
    n = len(steps)
    out = {}
    for target in targets:
        acc = [0] * n  # by column: the pivot rows solved so far, times their w
        w = [0] * n  # by row
        for r, c, inv, _, upper in steps:
            v = ((c == target) - acc[c]) * inv % PRIME
            if v:
                w[r] = v
                for j, u in upper:
                    acc[j] += v * u
        for r, _, _, ops, _ in reversed(steps):
            if ops:
                s = w[r]
                for i, f in ops:
                    s -= f * w[i]
                w[r] = s % PRIME
        out[target] = w
    return out


def _loop_factor(net: NetworkModel, values) -> list[tuple]:
    """``_sparse_factor`` of I - G built from the edge list; raises SingularMatrixError when it is singular."""
    return _sparse_factor(_loop_rows(net.n, ((e.dst, e.src, v) for e, v in zip(net.edges, values))))


def closed_loop(G: list[list[int]]) -> list[list[int]]:
    """(I - G)^{-1} over the field: I - G factored once, then one solve per row.

    Raises SingularMatrixError when I - G is not invertible, a non-generic
    sample the caller should redraw.  The rank route never forms the whole
    inverse; it solves for the ports it needs.
    """
    n = len(G)
    steps = _sparse_factor(_loop_rows(n, ((i, j, v) for i, row in enumerate(G) for j, v in enumerate(row) if v)))
    rows = _solve_rows(steps, range(n))
    return [rows[i] for i in range(n)]


def sensitivity_matrix(
    net: NetworkModel, T_left: list[list[int]], T_right: list[list[int]]
) -> list[list[int]]:
    """The derivative of the measured closed-loop map with respect to the unknown edges.

    Rows are (excitation, measurement) pairs at flat index
    b_idx * n_measured + c_idx; columns are the unknown edges in canonical
    edge-list order.  Entry at row (b, c), column for unknown edge a is
    T_left[c, head(a)] * T_right[tail(a), b]: T_left propagates the edge's
    head to the measurement, T_right the excitation to its tail.  The local
    test uses T_left = T_right; the decoupled test feeds two independently
    sampled closed loops.  Only the measured rows of T_left and the excited
    columns of T_right are read.
    """
    return _sensitivity(
        net,
        {c: T_left[c] for c in net.measured},
        {b: [row[b] for row in T_right] for b in net.excited},
    )


def _sensitivity(net: NetworkModel, rows: dict, cols: dict) -> list[list[int]]:
    """``sensitivity_matrix`` from T_left's measured rows and T_right's excited columns."""
    heads = [e.dst for e in net.unknown_edges]
    tails = [e.src for e in net.unknown_edges]
    at_head = {c: [rows[c][h] for h in heads] for c in net.measured}
    at_tail = {b: [cols[b][t] for t in tails] for b in net.excited}
    return [
        [(x * y) % PRIME for x, y in zip(at_head[c], at_tail[b])]
        for b in net.excited
        for c in net.measured
    ]


def _pack(values, width: int) -> int:
    """Nonnegative ints below 2^(8 width) as one int, a little-endian field of ``width`` bytes each."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def rank_field(A: list[list[int]]) -> int:
    """Rank over the prime field, by row insertion on rows packed into one int each.

    A tall matrix is eliminated as its transpose: the same rank from fewer,
    longer rows.  Each row is packed, one field per column holding its
    entry mod p, and cleared against each basis row in turn: a field read
    at that row's pivot gives the multiplier f, and one big-integer
    multiply-add, r += f * N, subtracts f times the row, N being the basis
    row scaled to pivot 1 and stored negated as p - x in every field.  The
    fields are then reduced all at once; the first one left nonzero, if
    any, is the new row's pivot.  The interpreter reads about one field per
    entry; the O(rows * rank * columns) word work is big-integer arithmetic.

    Field width.  A new row's fields start below p, and each clear adds
    f * (p - x) <= (p - 1) p per field, so after k clears a field is below
    (k + 1) p^2 < (k + 1) 2^122.  A row meets at most k <= ncols basis
    rows, and ncols + 1 <= 2^b for b = ``ncols.bit_length()``, so a field
    of 122 + b bits, rounded up to whole bytes, holds every sum: nothing
    carries into the next field, and each field read is exact.

    Reduction.  2^61 = p + 1, so a fold (v mod 2^61) + (v >> 61) keeps v
    modulo p, and on a packed row it is two masks and a shift.  From
    v < 2^(122 + b) one fold leaves less than 2^61 + 2^(61 + b), and a
    second at most p + 2^b < 2p.  A third, taken on v + 1 and followed by
    - 1, maps v in [0, 2p) to v mod p: v + 1 < 2^62 folds to v + 1 below
    2^61 and to v + 1 - p above it, at least 1 either way, so no field
    borrows.  Canonical fields make a row zero mod p exactly when it is 0,
    and put its pivot at its lowest set bit.
    """
    if A and len(A) > len(A[0]):
        A = list(zip(*A))
    ncols = len(A[0]) if A else 0
    width = (122 + ncols.bit_length() + 7) // 8  # bytes per field
    bits = 8 * width
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * ncols, "little")
    low, high, full = PRIME * ones, ((1 << bits - 61) - 1) * ones, (1 << bits) - 1

    def reduce(r: int) -> int:
        r = (r & low) + (r >> 61 & high)
        r = (r & low) + (r >> 61 & high) + ones
        return (r & low) + (r >> 61 & high) - ones

    basis = []  # (bit offset of the pivot field, the row scaled to pivot 1, negated)
    for row in A:
        r = _pack((x % PRIME for x in row), width)
        for shift, neg in basis:
            f = (r >> shift & full) % PRIME
            if f:
                r += f * neg
        r = reduce(r)
        if r:
            shift = ((r & -r).bit_length() - 1) // bits * bits
            basis.append((shift, low - reduce(r * pow(r >> shift & PRIME, -1, PRIME))))
    return len(basis)


def _sample_ports(net: NetworkModel, rng: random.Random, decoupled: bool) -> tuple[dict, dict]:
    """One sample's measured rows and excited columns of T = (I - G)^{-1}, resampling singular draws.

    Each draw factors I - G once and solves for the measured rows and the
    excited columns of its inverse; in decoupled mode the rows come from
    the first draw and the columns from the second.  Raises
    AllSamplesSingularError when all RESAMPLE_BUDGET draws are singular.
    """
    for _ in range(RESAMPLE_BUDGET):
        try:
            left = _loop_factor(net, random_field_values(net, rng))
            right = _loop_factor(net, random_field_values(net, rng)) if decoupled else left
        except SingularMatrixError:
            continue
        return _solve_rows(left, net.measured), _solve_columns(right, net.excited)
    raise AllSamplesSingularError(f"{RESAMPLE_BUDGET} draws in a row gave a singular closed loop")


def _sample_rank(net: NetworkModel, rng: random.Random, rows: dict, cols: dict) -> int:
    """Rank at one sample: of K when it has at most m rows, else of an m x m sketch of K.

    The sketch is R K, where row i of R is beta_i (x) alpha_i for nonzero
    values drawn from ``rng``: beta_i one per measurement, then alpha_i one
    per excitation.  Its entry for unknown edge a factors as

        (sum over c of beta_ic T[c, head a]) * (sum over b of alpha_ib T[tail a, b]),

    so it is built from T's solved rows and columns without forming K.
    Each of the two combinations is one sum of big-integer multiples over
    the ports: the m values of a port are packed into one int, one field
    per unknown edge, wide enough that no sum carries into the next field.
    rank(R K) <= rank K; ``generic_rank`` bounds the chance it falls short.
    """
    if net.n_excited * net.n_measured <= net.m_unknown:
        return rank_field(_sensitivity(net, rows, cols))
    heads = [e.dst for e in net.unknown_edges]
    tails = [e.src for e in net.unknown_edges]
    # A field sums at most max(|B|, |C|) products of two values below p < 2^61.
    width = (122 + max(net.n_excited, net.n_measured).bit_length() + 7) // 8  # bytes
    size = width * len(heads)

    def combine(weights: list[int], packed: list[int]) -> list[int]:
        fields = sum(map(operator.mul, weights, packed)).to_bytes(size, "little")
        return [int.from_bytes(fields[k : k + width], "little") % PRIME for k in range(0, size, width)]

    at_head = [_pack([rows[c][h] for h in heads], width) for c in net.measured]
    at_tail = [_pack([cols[b][t] for t in tails], width) for b in net.excited]
    sketch = []
    for _ in heads:
        u = combine(_nonzero_values(rng, net.n_measured), at_head)
        v = combine(_nonzero_values(rng, net.n_excited), at_tail)
        sketch.append([x * y % PRIME for x, y in zip(u, v)])
    return rank_field(sketch)


def _samples_needed(n: int, m: int) -> int:
    """Fewest samples s with q^s <= FAILURE_BOUND, for q = 2mn / (p - 1 - 2n).

    q bounds the chance that one sample of an n-node net with m unknown
    edges misses the generic rank (derived in ``generic_rank``).  Exact
    integer comparison; raises ValueError when q >= 1, which takes over a
    million nodes.
    """
    degree = 2 * m * n
    room = PRIME - 1 - 2 * n
    if degree >= room:
        raise ValueError(f"no sample count bounds the failure probability at n={n}, m={m}")
    num, den = FAILURE_BOUND.as_integer_ratio()
    s = 1
    while degree**s * den > num * room**s:
        s += 1
    return s


def generic_rank(net: NetworkModel, *, decoupled: bool = False, seed: int = 0) -> int:
    """Max rank of the sensitivity matrix K over random samples, drawn until the failure bound is met.

    Each sample draws every edge value uniformly from the p - 1 nonzero
    field elements, redrawing while I - G is singular, factors I - G once
    and solves for the excited columns and measured rows of
    T = (I - G)^{-1} that K reads.  Decoupled mode draws two independent
    value lists per sample, one per closed-loop factor.  A K with at most
    m = ``m_unknown`` rows, |B||C| <= m, is ranked as it is; a taller one
    through an m x m sketch R K (``_sample_rank``), whose rows
    beta_i (x) alpha_i are drawn after the sample's edge values.  The draws
    come from one ``random.Random(seed)`` stream: 61 random bits per value,
    drawn again when they read 0 or p (p = 2^61 - 1), which leaves the
    nonzero elements equally likely (``random_field_values``).  A sample
    whose RESAMPLE_BUDGET draws are all singular raises
    AllSamplesSingularError.

    Failure bound.  No sample exceeds the generic rank r <= m, a sketch
    R K no more than K, so the maximum falls short of r only if every
    sample is a zero of a nonzero r x r minor of the matrix it ranks.
    T = adj(I - G) / det(I - G), and each cofactor has degree at most
    n - 1 in the edge values, so an entry T[c, head] * T[tail, b] of K is
    a polynomial of degree at most 2(n - 1) over det(I - G)^2; in
    decoupled mode it is over det(I - G_1) det(I - G_2), the two draws
    being separate sets of variables.  An entry of R K,
    (sum_c beta_ic T[c, head]) * (sum_b alpha_ib T[tail, b]), is linear in
    beta_i and in alpha_i, so over the same denominator it has degree at
    most 2n in the edge values, beta and alpha together.  The sketch keeps
    a nonzero minor of K nonzero: take one with rows (b_1, c_1), ...,
    (b_r, c_r); at alpha_i = e_{b_i} and beta_i = e_{c_i} rows 1..r of R K
    are those rows of K (the rank-one tensors e_b (x) e_c span
    F^{|B||C|}), so the minor of R K on rows 1..r and the same columns is
    a nonzero polynomial.  With its denominator cleared, the minor of
    either matrix is a nonzero polynomial P of degree at most 2rn <= 2mn
    (2m(n - 1) on K; the one bound covers both), and Schwartz-Zippel over
    the nonzero values gives Pr[P = 0] <= 2mn / (p - 1).  The redraw rule
    conditions on Q != 0, Q = det(I - G) (the product of both
    determinants in decoupled mode): a polynomial of degree at most 2n
    with constant term 1, so Pr[Q != 0] >= 1 - 2n / (p - 1) and

        Pr[P = 0 | Q != 0] <= Pr[P = 0] / Pr[Q != 0] <= 2mn / (p - 1 - 2n) = q.

    Samples are independent, so s of them all miss with probability at
    most q^s.

    Stop rule.  Sampling stops at the first sample of rank m, which
    certifies full rank, and otherwise after s* samples, the fewest with
    q^s* <= FAILURE_BOUND (2^-40).  s* uses m, not the running rank, so it
    is fixed by (n, m) before any sample is drawn and needs no
    optional-stopping argument; it also bounds the reported rank, whatever
    r is.  s* is 1 until mn exceeds about 2^20.  Deterministic in
    (net, decoupled, seed).
    """
    rng = random.Random(seed)
    best = 0
    for _ in range(_samples_needed(net.n, net.m_unknown)):
        best = max(best, _sample_rank(net, rng, *_sample_ports(net, rng, decoupled)))
        if best == net.m_unknown:
            break
    return best


def generic_det_nonzero(net: NetworkModel, seed: int = 0) -> bool:
    """Whether det of the (square) sensitivity matrix is nonzero at some random sample.

    A square matrix has a nonzero determinant exactly when it has full
    rank, so this is the full-rank test of ``generic_rank`` under the
    separable-square guard, with its stop rule.  True means the determinant
    is generically nonzero; false means it vanished at every sample, which
    makes it identically zero except with probability at most
    FAILURE_BOUND.  Requires a separable network with one unknown
    edge per (excitation, measurement) pair: NotSeparableError or
    NotSquareError otherwise.
    """
    separate(net)
    if not net.is_square:
        raise NotSquareError(net)
    return generic_rank(net, seed=seed) == net.m_unknown
