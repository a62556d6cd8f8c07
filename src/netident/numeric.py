"""Exact matrix arithmetic over a prime field for identifiability testing.

One scalar kind: integers modulo the prime 2^61 - 1, held as plain Python
ints.  Rank and determinant answers are exact per sample, and the
probability that a random sample misses the generic value is bounded by
Schwartz-Zippel.  There are two eliminations, one per kind of matrix.  The
closed loop I - G is sparse: ``_loop_factor`` builds its nonzeros from the
edge list as dict rows, ``_sparse_factor`` factors them in a fill-reducing
(Markowitz) pivot order, and ``_solve`` runs many right-hand sides through
the steps at once, touching only the stored nonzeros; no n x n matrix is
laid out, and nothing is kept between calls.  ``rank_field`` ranks an
m x m sketch of the sensitivity matrix K on packed rows.  Both pack the
same way (``_fields``): one big integer holds many field values side by
side, a row of the sketch in ``rank_field`` and one node's entry for
every right-hand side in ``_solve``, each field wide enough that no sum
carries into the next, so a multiply-add on all of them is one
big-integer operation, and every field is reduced modulo p at once by
Mersenne folds.
A sample of the rank route needs one factorization and one packed solve
per side: K has one row per (excitation, measurement) pair but rank at
most m, the number of unknown edges, so every sample ranks an m x m
sketch R K, and the sketch's random weights are the solves' right-hand
sides, one field per sketch row.

The identifiability test is a polynomial identity in the edge values, so
drawing the values from a large prime field instead of the complex numbers
decides the same rank/determinant dichotomy; the field is a test device,
not a model of the signals.  The floating-point power-series check of the
closed loop lives in ``netident.series``.
"""

from __future__ import annotations

import random

from .netmodel import NetworkModel, NotSquareError, separate

__all__ = [
    "PRIME",
    "RESAMPLE_BUDGET",
    "FAILURE_BOUND",
    "SingularMatrixError",
    "AllSamplesSingularError",
    "random_field_values",
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


def random_field_values(rng: random.Random, count: int) -> list[int]:
    """``count`` values uniform over the p - 1 nonzero field elements: a sample's edge values or a sketch row's weights.

    Known edges get random values too: identifiability is generic over all
    nonzero entries, and "known" only means the procedure is told the value.
    ``getrandbits(61)`` is uniform on 0..2^61 - 1 = 0..PRIME; redrawing 0
    and PRIME leaves 1..PRIME - 1 equally likely.
    """
    values = []
    for _ in range(count):
        v = rng.getrandbits(61)
        while v == 0 or v == PRIME:
            v = rng.getrandbits(61)
        values.append(v)
    return values


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


def _fields(count: int, k: int):
    """The packed layout of ``count`` fields that each hold a value below (k + 1) p^2: (width, low, reduce).

    Field i of a packed int is bytes i * width to (i + 1) * width - 1,
    little-endian.  A field has 122 + b bits, b = k.bit_length(), rounded
    up to whole bytes: k + 1 <= 2^b, so (k + 1) p^2 < 2^(122 + b), and a
    sum that stays below that bound in every field carries nothing into
    the next field and reads back exactly.  ``low`` masks the low 61 bits
    of every field: it is p = 2^61 - 1 in each.

    ``reduce`` takes every field of a packed int below the bound to its
    value mod p at once.  2^61 = p + 1, so a fold (v mod 2^61) + (v >> 61)
    keeps v modulo p, and on a packed int it is two masks and a shift.
    From v < 2^(122 + b) one fold leaves less than 2^61 + 2^(61 + b), and a
    second at most p + 2^b < 2p.  A third, taken on v + 1 and followed by
    - 1, maps v in [0, 2p) to v mod p: v + 1 < 2^62 folds to v + 1 below
    2^61 and to v + 1 - p above it, at least 1 either way, so no field
    borrows.  Canonical fields make a packed int zero mod p exactly when it
    is 0.
    """
    width = (122 + k.bit_length() + 7) // 8  # bytes per field
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
    low, high = PRIME * ones, ((1 << 8 * width - 61) - 1) * ones

    def reduce(r: int) -> int:
        r = (r & low) + (r >> 61 & high)
        r = (r & low) + (r >> 61 & high) + ones
        return (r & low) + (r >> 61 & high) - ones

    return width, low, reduce


def _pack(values, width: int) -> int:
    """Nonnegative ints below 2^(8 width) as one int, a little-endian field of ``width`` bytes each."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _unpack(r: int, width: int, count: int) -> list[int]:
    """The ``count`` fields of ``width`` bytes each of the packed int ``r``, lowest first."""
    data = r.to_bytes(width * count, "little")
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, width * count, width)]


def _solve(steps: list[tuple], rhs: dict[int, int], reduce, transposed: bool = False) -> list[int]:
    """A^{-1} y, or y^T A^{-1} when ``transposed``, for A factored into ``steps`` and packed y.

    y is given as node -> packed int (0 where absent), each field below p;
    field i of the result is A^{-1} (or its transpose) applied to field i
    of y, so one pass solves for every field at once.  The direct solve
    runs the row operations on y, then back-substitutes through the pivot
    rows; the transposed one scatters through the pivot rows (U^T), then
    runs the row operations reversed (L^T).  Zero entries are skipped, so
    a solve touches only the stored nonzeros that reach y's support.

    Subtractions are additions of p - f times an entry with canonical
    fields, and an entry is reduced (``reduce``, from ``_fields``) once it
    is final or is about to multiply: a field sums its value from y or a
    reduced one, below p, and at most n - 1 products below p^2, so it
    stays below n p^2, which ``_fields(count, n + 1)`` holds.  Every field
    of the result is canonical.
    """
    n = len(steps)
    if transposed:
        acc = [0] * n  # by column: -u times the solved pivot rows, summed
        w = [0] * n  # by row
        for r, c, inv, _, upper in steps:
            v = reduce(rhs.get(c, 0) + acc[c])
            if v:
                v = w[r] = reduce(v * inv)
                for j, u in upper:
                    acc[j] += (PRIME - u) * v
        for r, _, _, ops, _ in reversed(steps):
            if ops:
                s = w[r]
                for i, f in ops:
                    s += (PRIME - f) * w[i]
                w[r] = reduce(s)
        return w
    z = [rhs.get(i, 0) for i in range(n)]  # by row
    for r, _, _, ops, _ in steps:
        if z[r]:
            zr = z[r] = reduce(z[r])
            for i, f in ops:
                z[i] += (PRIME - f) * zr
    x = [0] * n  # by column
    for r, c, inv, _, upper in reversed(steps):
        s = z[r]
        for j, u in upper:
            s += (PRIME - u) * x[j]
        if s:
            x[c] = reduce(reduce(s) * inv)
    return x


def _loop_factor(net: NetworkModel, values) -> list[tuple]:
    """``_sparse_factor`` of I - G built from the edge list; raises SingularMatrixError when it is singular.

    Edge j -> i with value g puts -g mod p at row i, column j, unless that is
    0; a network has no self-loops, so no edge lands on the diagonal's 1.
    """
    rows = [{i: 1} for i in range(net.n)]
    for e, v in zip(net.edges, values):
        if x := -v % PRIME:
            rows[e.dst][e.src] = x
    return _sparse_factor(rows)


def rank_field(A: list[list[int]]) -> int:
    """Rank over the prime field, by row insertion on rows packed into one int each.

    Each row is packed, one field per column holding its entry mod p, and
    cleared against each basis row in turn: a field read at that row's pivot
    gives the multiplier f, and one big-integer multiply-add, r += f * N,
    subtracts f times the row, N being the basis row scaled to pivot 1 and
    stored negated as p - x in every field.  The fields are then reduced all
    at once; the first one left nonzero, if any, is the new row's pivot.  The
    interpreter reads about one field per entry; the
    O(rows * rank * columns) word work is big-integer arithmetic.

    A new row's fields start below p, and each clear adds
    f * (p - x) <= (p - 1) p per field, so after k clears a field is below
    (k + 1) p^2.  A row meets at most k <= ncols basis rows, however many
    rows A has, so the layout ``_fields(ncols, ncols)`` holds every sum,
    each field read is exact, and its ``reduce`` leaves every field
    canonical: a row is then zero mod p exactly when it is 0, and its pivot
    sits at its lowest set bit.
    """
    ncols = len(A[0]) if A else 0
    width, low, reduce = _fields(ncols, ncols)
    bits = 8 * width
    full = (1 << bits) - 1
    basis = []  # (bit offset of the pivot field, the row scaled to pivot 1, negated)
    for row in A:
        r = _pack([x % PRIME for x in row], width)
        for shift, neg in basis:
            f = (r >> shift & full) % PRIME
            if f:
                r += f * neg
        r = reduce(r)
        if r:
            shift = ((r & -r).bit_length() - 1) // bits * bits
            basis.append((shift, low - reduce(r * pow(r >> shift & PRIME, -1, PRIME))))
    return len(basis)


def _sample_factors(net: NetworkModel, rng: random.Random, decoupled: bool) -> tuple[list, list]:
    """One sample's factors of I - G, (left, right), resampling singular draws.

    Each draw factors I - G once; in decoupled mode the left factor comes
    from the first draw and the right one from the second, and otherwise
    they are the same.  Raises AllSamplesSingularError when all
    RESAMPLE_BUDGET draws are singular.
    """
    for _ in range(RESAMPLE_BUDGET):
        try:
            left = _loop_factor(net, random_field_values(rng, len(net.edges)))
            right = _loop_factor(net, random_field_values(rng, len(net.edges))) if decoupled else left
        except SingularMatrixError:
            continue
        return left, right
    raise AllSamplesSingularError(f"{RESAMPLE_BUDGET} draws in a row gave a singular closed loop")


def _sample_rank(net: NetworkModel, rng: random.Random, left: list[tuple], right: list[tuple]) -> int:
    """Rank at one sample of the m x m sketch R K of the sensitivity matrix K.

    K has one row per (excitation b, measurement c) pair and one column per
    unknown edge a, entry T_left[c, head a] * T_right[tail a, b]; ``left``
    and ``right`` are the factors of the two closed loops.  Row i of R is
    beta_i (x) alpha_i for nonzero values drawn from ``rng`` once the
    sample's factors exist: beta_i one per measurement, then alpha_i one
    per excitation.  Entry (i, a) of R K factors as

        (sum over c of beta_ic T_left[c, head a]) * (sum over b of T_right[tail a, b] alpha_ib),

    and both sums are linear in the weights, so two packed solves give all
    m rows, with no row or column of T formed: node c's right-hand side
    holds beta_ic in field i, so field i of the transposed solve is
    beta_i^T T_left, and node b's holds alpha_ib, so field i of the direct
    solve is T_right alpha_i.  Both sides share one layout of m fields.
    rank(R K) <= rank K; ``generic_rank`` bounds the chance it falls short.
    """
    unknown = net.unknown_edges
    m = len(unknown)
    beta, alpha = [], []
    for _ in range(m):
        beta.append(random_field_values(rng, net.n_measured))
        alpha.append(random_field_values(rng, net.n_excited))
    width, _, reduce = _fields(m, net.n + 1)
    sides = []
    for steps, weights, ports, ends, transposed in (
        (left, beta, net.measured, [e.dst for e in unknown], True),
        (right, alpha, net.excited, [e.src for e in unknown], False),
    ):
        rhs = {node: _pack(column, width) for node, column in zip(ports, zip(*weights))}
        solved = _solve(steps, rhs, reduce, transposed)
        fields = {v: _unpack(solved[v], width, m) for v in set(ends)}
        sides.append(zip(*(fields[v] for v in ends)))  # row i: field i at each unknown edge
    return rank_field([[a * b % PRIME for a, b in zip(x, y)] for x, y in zip(*sides)])


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
    """Generic rank of the sensitivity matrix K: the max rank of its m x m sketch over random samples, drawn until the failure bound is met.

    Each sample draws every edge value uniformly from the p - 1 nonzero
    field elements, redrawing while I - G is singular, and factors I - G
    once.  Decoupled mode draws two independent value lists per sample,
    one per closed-loop factor.  The sample then draws the rows
    beta_i (x) alpha_i of R, m = ``m_unknown`` of them, and ranks R K
    (``_sample_rank``) from one transposed packed solve against the
    measurements and one direct solve against the excitations, with the
    weights as right-hand sides.  The draws come from one
    ``random.Random(seed)`` stream: 61 random bits per value, drawn again
    when they read 0 or p (p = 2^61 - 1), which leaves the nonzero elements
    equally likely (``random_field_values``).  A sample whose
    RESAMPLE_BUDGET draws are all singular raises AllSamplesSingularError.

    Failure bound.  No sample's R K exceeds rank K, nor K its generic rank
    r <= m, so the maximum falls short of r only if every sample is a zero
    of a nonzero r x r minor of R K.  T = adj(I - G) / det(I - G), and each
    cofactor has degree at most n - 1 in the edge values; in decoupled mode
    the two draws are separate sets of variables, with denominator
    det(I - G_1) det(I - G_2).  An entry of R K,
    (sum_c beta_ic T[c, head]) * (sum_b alpha_ib T[tail, b]), is linear in
    beta_i and in alpha_i, so over det(I - G)^2 (or the product) it has
    degree at most 2n in the edge values, beta and alpha together.  Some
    r x r minor of R K is a nonzero polynomial: take a nonzero minor of K
    with rows (b_1, c_1), ..., (b_r, c_r); at alpha_i = e_{b_i} and
    beta_i = e_{c_i} rows 1..r of R K are those rows of K, since r <= m
    leaves R a row for each of them, so the minor of R K on rows 1..r and
    the same columns is not identically 0.  With its denominator cleared
    it is a nonzero polynomial P of degree at most 2rn <= 2mn, and
    Schwartz-Zippel over the nonzero values gives
    Pr[P = 0] <= 2mn / (p - 1).  The redraw rule conditions on Q != 0,
    Q = det(I - G) (the product of both determinants in decoupled mode): a
    polynomial of degree at most 2n with constant term 1, so
    Pr[Q != 0] >= 1 - 2n / (p - 1) and

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

    Cost.  Each draw factors its I - G once.  ``netident check`` samples
    the decoupled mode only when the local rank and the structural rank
    bound leave its rank open (``decoupled_identifiability``), so most
    checks factor one closed loop.
    """
    m = net.m_unknown
    rng = random.Random(seed)
    best = 0
    for _ in range(_samples_needed(net.n, m)):
        best = max(best, _sample_rank(net, rng, *_sample_factors(net, rng, decoupled)))
        if best == m:
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
