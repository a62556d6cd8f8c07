"""Exact field arithmetic, closed loops, series truncation and generic rank/determinant."""

import random
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from netident import (
    Edge,
    MAX_NODES,
    NetworkModel,
    NotSeparableError,
    NotSquareError,
    decouple,
    decoupled_identifiability,
    local_identifiability,
    random_network,
)
from netident import numeric, series
from netident.numeric import (
    PRIME,
    SingularMatrixError,
    generic_det_nonzero,
    generic_rank,
    random_field_values,
    rank_field,
)
from netident.series import float_closed_loop, inf_norm, network_matrix, neumann_series, random_float_values

from corpus import (
    bipartite_net,
    chain_net,
    cyclic9_net,
    fan_net,
    general_square_corpus,
    minimal_net,
    unreachable_net,
)
from helpers import (
    _factor,
    calls,
    closed_loop,
    det_field,
    identity_field,
    kernel_field,
    leibniz_det,
    loop_factor,
    mat_mul_field,
    minor_rank,
    pack_reference,
    sample_sensitivity,
    sensitivity_matrix,
    unit_solve,
    unpack_reference,
)

rng = np.random.default_rng
field_rng = random.Random


def lift_if(net, lifted: bool):
    """The 2n-node lift of ``net`` when ``lifted``, whose local rank is the decoupled rank of ``net``; ``net`` otherwise."""
    return decouple(net) if lifted else net


def exact_values(net, values_by_pair):
    return [values_by_pair[(e.src, e.dst)] for e in net.edges]


def library_sketch(net, values, seed=0):
    """What ``rank_field`` receives from one sample at ``values``: R K, R's weights drawn from ``random.Random(seed)``."""
    steps = numeric._loop_factor(net, values)
    seen = calls(rank_field, lambda: numeric._sample_rank(net, field_rng(seed), steps))
    return seen[0]["A"]


def pins_k(net, K, values, seed=0):
    """The library's sketch at ``values`` is R K, for R replayed from ``seed``, and R has full column rank, so R K pins K."""
    R = sketch_weights(net, field_rng(seed))
    return library_sketch(net, values, seed) == mat_mul_field(R, K) and rank_field(R) == len(K)


class TestNetworkMatrix:
    def test_empty_edge_set_gives_zero_matrix(self):
        net = NetworkModel(3, [], [0], [1])
        assert network_matrix(net, []) == [[0] * 3 for _ in range(3)]

    def test_entry_convention_is_column_source_row_sink(self):
        """Edge j->i lands at [i][j]."""
        net = chain_net()
        values = exact_values(net, {(0, 1): 7, (1, 2): 11})
        assert network_matrix(net, values) == [[0, 0, 0], [7, 0, 0], [0, 11, 0]]


class TestFieldValues:
    def test_deterministic_per_seed(self):
        nets = [minimal_net(), cyclic9_net(), NetworkModel(3, [], [0], [1])]
        nets.append(random_network(nodes=30, unknowns=20, excited=4, measured=4, known_density=0.15, seed=3))
        for net in nets:
            for seed in (0, 1, 9, 2**40):
                values = random_field_values(field_rng(seed), len(net.edges))
                assert values == random_field_values(field_rng(seed), len(net.edges))
                assert len(values) == len(net.edges)
                assert all(type(v) is int for v in values)
        count = len(nets[-1].edges)
        assert random_field_values(field_rng(0), count) != random_field_values(field_rng(1), count)

    def test_values_are_nonzero_field_elements(self):
        net = random_network(nodes=30, unknowns=20, excited=4, measured=4, known_density=0.15, seed=3)
        for seed in range(20):
            assert all(1 <= v <= PRIME - 1 for v in random_field_values(field_rng(seed), len(net.edges)))

    def test_zero_and_prime_are_drawn_again(self, monkeypatch):
        """61 bits read 0..PRIME; the two values outside the nonzero elements are redrawn, in place."""
        net = chain_net()
        gen = field_rng(5)
        real = gen.getrandbits
        scripted = [0, PRIME]
        calls = []

        def getrandbits(k):
            calls.append(k)
            return scripted.pop(0) if scripted else real(k)

        monkeypatch.setattr(gen, "getrandbits", getrandbits)
        values = random_field_values(gen, len(net.edges))
        assert values == random_field_values(field_rng(5), len(net.edges))
        assert all(1 <= v <= PRIME - 1 for v in values)
        assert calls == [61] * (len(net.edges) + 2)


class TestClosedLoop:
    def test_zero_matrix_gives_identity(self):
        assert closed_loop(NetworkModel(2, [], [0], [1]), []) == identity_field(2)

    def test_exact_inverse_property(self):
        """closed_loop(G) * (I - G) is exactly the identity over the field."""
        for seed in range(10):
            net = fan_net()
            values = random_field_values(field_rng(seed), len(net.edges))
            G = network_matrix(net, values)
            T = closed_loop(net, values)
            M = [[(1 if i == j else 0) - G[i][j] for j in range(net.n)] for i in range(net.n)]
            assert mat_mul_field(T, M) == identity_field(net.n)

    def test_nilpotent_matches_finite_series(self):
        net = chain_net()
        values = exact_values(net, {(0, 1): 3, (1, 2): 5})
        G = network_matrix(net, values)
        G2 = mat_mul_field(G, G)
        expected = [
            [(identity_field(3)[i][j] + G[i][j] + G2[i][j]) % PRIME for j in range(3)]
            for i in range(3)
        ]
        assert closed_loop(net, values) == expected

    def test_float_singular_raises(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            float_closed_loop(G)

    def test_float_overflow_raises(self):
        """A unit triangular I - G, det 1, whose closed loop overflows, names the overflow; a singular one of any scale reads singular.

        One entry of the closed loop is 1e200^2, the value of the one walk
        of length 2.  Upper triangular, the float solve succeeds and
        overflows; lower triangular, partial pivoting takes -1e200 as a
        pivot, the next one underflows to 0 and the solve fails.  A 3-cycle
        of gain exactly 1 makes I - G singular, with edges 1, 1, 1 or 2^500,
        2^500, 2^-1000; the float solve fails on both.
        """
        G = np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]], dtype=complex)
        for chain in (G, G.T):
            with pytest.raises(SingularMatrixError, match="^non-finite entries in closed loop$"):
                float_closed_loop(chain)
        for scale in (1.0, 2.0**500):
            cycle = np.array([[0.0, 0.0, scale**-2], [scale, 0.0, 0.0], [0.0, scale, 0.0]], dtype=complex)
            with pytest.raises(SingularMatrixError, match="^Singular matrix$"):
                float_closed_loop(cycle)

    def test_exact_singular_raises(self):
        net = NetworkModel(2, [Edge(0, 1, known=True), Edge(1, 0, known=True)], [0], [1])
        values = exact_values(net, {(0, 1): 1, (1, 0): 1})
        with pytest.raises(SingularMatrixError):
            closed_loop(net, values)


class TestNeumannSeries:
    def test_zero_matrix(self):
        G = np.zeros((4, 4), dtype=complex)
        assert np.array_equal(neumann_series(G, 10), np.eye(4, dtype=complex))

    def test_acyclic_terminates_exactly(self):
        net = chain_net()
        G = network_matrix(net, random_float_values(net, rng(1)))
        err = np.max(np.abs(neumann_series(G, net.n - 1) - float_closed_loop(G)))
        assert err <= 1e-12

    def test_cyclic_truncation_error_bound(self):
        """With the row-sum norm at most 1/2, thirty terms land within the tail bound."""
        net = NetworkModel(
            3,
            [Edge(0, 1, known=True), Edge(1, 2, known=True), Edge(2, 1, known=True)],
            [0],
            [2],
        )
        G = network_matrix(net, random_float_values(net, rng(2)))
        norm = inf_norm(G)
        assert norm <= 0.5
        err = np.max(np.abs(neumann_series(G, 30) - float_closed_loop(G)))
        assert err <= norm ** 31 / (1 - norm) + 1e-15


class TestFloatEvaluation:
    def test_empty_matrix_has_norm_zero(self):
        assert inf_norm(network_matrix(NetworkModel(0, [], [], []), [])) == 0.0
        assert inf_norm(np.zeros((0, 0))) == 0.0

    def test_norm_bound_enforced(self):
        for seed in range(10):
            values = random_float_values(fan_net(), rng(seed))
            assert inf_norm(network_matrix(fan_net(), values)) <= 0.5

    def test_zero_pattern_unchanged_by_scaling(self):
        G = np.array(network_matrix(fan_net(), random_float_values(fan_net(), rng(3))))
        present = {(e.dst, e.src) for e in fan_net().edges}
        for i in range(5):
            for j in range(5):
                assert (G[i, j] != 0) == ((i, j) in present)


class TestSensitivityMatrix:
    def test_minimal_net_is_one(self):
        net = minimal_net()
        values = exact_values(net, {(0, 1): 9})
        T = closed_loop(net, values)
        assert sensitivity_matrix(net, T) == [[1]]
        assert pins_k(net, [[1]], values)

    def test_fan_entries_are_known_edge_values(self):
        """Acyclic relays make each entry a single path product."""
        net = fan_net()
        vals = {(0, 2): 2, (0, 3): 3, (1, 2): 5, (1, 3): 7, (2, 4): 11, (3, 4): 13}
        values = exact_values(net, vals)
        T = closed_loop(net, values)
        assert sensitivity_matrix(net, T) == [[2, 3], [5, 7]]
        assert pins_k(net, [[2, 3], [5, 7]], values)

    def test_unreachable_column_is_zero(self):
        net = unreachable_net()
        values = random_field_values(field_rng(4), len(net.edges))
        T = closed_loop(net, values)
        assert sensitivity_matrix(net, T) == [[0]]
        assert pins_k(net, [[0]], values)

    def test_null_space_reconstructs_valid_perturbations(self):
        """Kernel vectors, reshaped on the unknown-edge pattern, annihilate the measured response."""
        net = NetworkModel(
            4,
            [
                Edge(0, 1, known=True),
                Edge(1, 2, known=False),
                Edge(1, 3, known=False),
                Edge(2, 3, known=True),
            ],
            [0],
            [3],
        )
        T = closed_loop(net, random_field_values(field_rng(5), len(net.edges)))
        K = sensitivity_matrix(net, T)
        basis = kernel_field(K)
        assert len(basis) == len(net.unknown_edges) - rank_field(K)
        assert basis, "this network must have a nontrivial null space"
        for vec in basis:
            delta = [[0] * net.n for _ in range(net.n)]
            for coeff, e in zip(vec, net.unknown_edges):
                delta[e.dst][e.src] = coeff
            M = mat_mul_field(mat_mul_field(T, delta), T)
            for c in net.measured:
                for b in net.excited:
                    assert M[c][b] == 0


class TestFieldElimination:
    def test_rank_and_det_on_handmade_matrices(self):
        assert rank_field([[1, 2], [2, 4]]) == 1
        assert rank_field([[1, 0], [0, 1]]) == 2
        assert rank_field([]) == 0
        assert det_field([[1, 2], [2, 4]]) == 0
        assert det_field([[0, 1], [1, 0]]) == PRIME - 1
        assert det_field([[2]]) == 2

    def test_det_zero_iff_rank_deficient(self):
        for seed in range(20):
            A = [[int(x) for x in row] for row in rng(seed).integers(0, 5, size=(3, 3))]
            assert (det_field(A) == 0) == (rank_field(A) < 3)


def small_matrices():
    """Seeded small matrices, mostly zeros: every shape up to 4 x 4, with zero rows and columns and row swaps."""
    gen = rng(11)
    palette = [1, 2, 3, PRIME - 1, PRIME - 2]

    def entry():
        if gen.random() < 0.45:
            return 0
        return int(gen.choice(palette)) if gen.random() < 0.5 else int(gen.integers(1, PRIME))

    for rows in range(1, 5):
        for cols in range(1, 5):
            for _ in range(12):
                A = [[entry() for _ in range(cols)] for _ in range(rows)]
                yield A
                # a duplicated row (rank deficiency) and a zero leading column (a swap or a skip)
                yield A + [list(A[0])] if rows < 4 else [list(A[-1])] + A[1:]
                yield [[0] + row[1:] for row in A]


class TestFactorAgainstReferences:
    def test_rank_and_det_match_leibniz_and_minors(self):
        swapped = skipped = 0
        for A in small_matrices():
            rank, det, pivot_cols, perm, rows = _factor(A)
            assert rank == minor_rank(A) == len(pivot_cols)
            if len(A) == len(A[0]):
                assert det == leibniz_det(A)
            assert sorted(perm) == list(range(len(A)))
            swapped += perm != list(range(len(A)))
            skipped += pivot_cols != list(range(rank))
        assert swapped > 50 and skipped > 50

    def test_square_nonsingular_factor_reproduces_the_permuted_rows(self):
        """Row k of L U is row perm[k] of A, with L's unit diagonal implied."""
        checked = 0
        for A in small_matrices():
            n = len(A)
            rank, _, _, perm, rows = _factor(A)
            if n != len(A[0]) or rank < n:
                continue
            L = [[rows[i][j] if j < i else int(i == j) for j in range(n)] for i in range(n)]
            U = [[rows[i][j] if j >= i else 0 for j in range(n)] for i in range(n)]
            assert mat_mul_field(L, U) == [[x % PRIME for x in A[perm[k]]] for k in range(n)]
            checked += 1
        assert checked >= 20

    def test_zero_and_empty_shapes(self):
        assert _factor([[0, 0], [0, 0], [0, 0]])[:3] == (0, 0, [])
        assert _factor([[0, 5], [0, 0]])[:3] == (1, 0, [1])
        assert _factor([])[:3] == (0, 1, [])


def low_rank_product(gen, rows, cols, rank):
    """A seeded rows x cols product of a rows x rank and a rank x cols matrix, reduced mod PRIME."""
    L = [[gen.randrange(PRIME) for _ in range(rank)] for _ in range(rows)]
    R = [[gen.randrange(PRIME) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(Li, col)) % PRIME for col in zip(*R)] for Li in L]


class TestPackedRank:
    """``rank_field`` on packed rows against the largest nonzero minor and the list-row ``_factor``."""

    def test_small_matrices(self):
        for A in small_matrices():
            assert rank_field(A) == minor_rank(A) == _factor(A)[0], A

    @pytest.mark.parametrize("tall", [False, True])
    def test_low_rank_products(self, tall):
        gen = field_rng(19)
        for _ in range(40):
            rows, cols = sorted((gen.randint(1, 40), gen.randint(1, 40)), reverse=tall)
            rank = gen.randint(0, min(rows, cols))
            A = low_rank_product(gen, rows, cols, rank)
            assert rank_field(A) == _factor(A)[0] == rank == rank_field([list(c) for c in zip(*A)])

    def test_entries_as_negatives_and_multiples_of_p(self):
        gen = field_rng(23)
        for A in small_matrices():
            shifted = [[x - gen.randint(1, 3) * PRIME for x in row] for row in A]
            negated = [[-x for x in row] for row in A]
            assert rank_field(shifted) == rank_field(negated) == rank_field(A)
        assert rank_field([[PRIME, 2 * PRIME], [-PRIME, 0]]) == 0
        assert rank_field([[PRIME + 1, -1], [1, PRIME - 1]]) == 1

    def test_empty_and_zero_shapes(self):
        assert rank_field([]) == 0
        assert rank_field([[], []]) == 0
        assert rank_field([[0, 0, 0]]) == rank_field([[0], [0], [0]]) == 0
        assert rank_field([[0, 0], [0, 0], [0, 0]]) == 0
        assert rank_field([[0, 5], [0, 0]]) == 1
        assert rank_field([[0, 0, 0], [1, 0, 2], [0, 0, 0]]) == 1
        assert rank_field([[0], [0], [7]]) == 1


def repeated_triangle(ncols: int) -> list[list[int]]:
    """Rows -(e_0 + ... + e_i) for i < ncols - 1, entries p - 1, then the last of them again: rank ncols - 1.

    Each row meets every earlier basis row with multiplier p - 1, and the
    repeated row meets ncols - 1 of them, so its fields reach about
    (ncols - 1) p^2 before they are reduced to 0.
    """
    rows = [[PRIME - 1] * (i + 1) + [0] * (ncols - i - 1) for i in range(ncols - 1)]
    return rows + [list(rows[-1])]


class TestPackedRankFieldWidth:
    """``rank_field`` gives each field 122 + ncols.bit_length() bits, in whole bytes.

    The widths sit on either side of each step of the bit length.  At
    ncols = 63 the width is exactly 16 bytes, and the repeated row's fields
    reach 62 (p - 1) p, within 4 % of 2^128.  A field that carries, or one
    left unreduced by a missing fold, leaves the repeated row nonzero,
    which shows as rank ncols.
    """

    @pytest.mark.parametrize("ncols", [2**k + d for k in range(2, 8) for d in (-1, 0)])
    def test_rank_at_the_widest_sums(self, ncols):
        A = repeated_triangle(ncols)
        assert rank_field(A) == ncols - 1
        assert rank_field([list(col) for col in zip(*A)]) == ncols - 1
        assert rank_field([[-1 if x else 0 for x in row] for row in A]) == ncols - 1
        if ncols <= 32:
            assert _factor(A)[0] == ncols - 1


def pivots(steps):
    return [(r, c) for r, c, *_ in steps]


def solved_inverse(steps):
    """T from the transposed solve (rows of T), after checking that the direct solve (columns) gives the same matrix."""
    T = [list(row) for row in zip(*unit_solve(steps, transposed=True))]
    assert unit_solve(steps) == T
    return T


class TestSparseFactor:
    """The closed-loop factor against the largest-minor rank and the field product."""

    def test_singular_exactly_when_a_minor_says_so(self):
        """On every square small matrix A, factoring A = I - G fails iff rank A < n; otherwise T A = I."""
        outcomes = Counter()
        for A in small_matrices():
            n = len(A)
            if n != len(A[0]):
                continue
            G = [[(int(i == j) - A[i][j]) % PRIME for j in range(n)] for i in range(n)]
            try:
                steps = loop_factor(G)
            except SingularMatrixError:
                assert minor_rank(A) < n
                outcomes["singular"] += 1
                continue
            assert minor_rank(A) == n
            assert mat_mul_field(solved_inverse(steps), A) == identity_field(n)
            outcomes["solved"] += 1
        assert outcomes["singular"] >= 20 and outcomes["solved"] >= 20

    def test_loop_draws_against_minors(self):
        """Edge values from a small palette make I - G singular often; the factor agrees with the minors."""
        outcomes = Counter()
        palette = [1, PRIME - 1]
        for seed in range(60):
            net = random_network(nodes=4, unknowns=2, excited=1, measured=1, known_density=0.6, seed=seed)
            gen = field_rng(seed)
            values = [gen.choice(palette) for _ in net.edges]
            G = network_matrix(net, values)
            M = [[(int(i == j) - G[i][j]) % PRIME for j in range(net.n)] for i in range(net.n)]
            try:
                steps = numeric._loop_factor(net, values)
            except SingularMatrixError:
                assert minor_rank(M) < net.n
                outcomes["singular"] += 1
                continue
            assert minor_rank(M) == net.n
            assert mat_mul_field(solved_inverse(steps), M) == identity_field(net.n)
            outcomes["solved"] += 1
        assert outcomes["singular"] >= 5 and outcomes["solved"] >= 20

    def test_pivot_that_cancels_to_zero_is_skipped(self):
        """Clearing row 1 with row 0 cancels A[1][1] to exactly 0.

        Kept as a stored 0, it would tie column 1 with column 2 at two
        entries and win on index, with row 1 as its pivot row.  Deleted, it
        leaves column 1 one entry, in row 2.
        """
        A = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        G = [[int(i == j) - A[i][j] for j in range(3)] for i in range(3)]
        steps = loop_factor(G)
        assert pivots(steps) == [(0, 0), (2, 1), (1, 2)]
        assert mat_mul_field(solved_inverse(steps), A) == identity_field(3)

    def test_pivot_order_depends_on_the_matrix_alone(self):
        """Edges listed in any order give the same pivots and the same inverse."""
        net = cyclic9_net()
        values = random_field_values(field_rng(9), len(net.edges))
        steps = numeric._loop_factor(net, values)
        reversed_net = NetworkModel(net.n, net.edges[::-1], net.excited, net.measured)
        shuffled = numeric._loop_factor(reversed_net, values[::-1])
        assert pivots(shuffled) == pivots(steps)
        assert solved_inverse(shuffled) == solved_inverse(steps)


class TestLastClosedLoop:
    """No factorization outlives its draw: a replay factors every closed loop again."""

    @pytest.mark.parametrize("lifted", [False, True])
    def test_singular_draws_are_factored_again_on_replay(self, monkeypatch, lifted):
        """With every factorization singular, the budget still sees RESAMPLE_BUDGET draws, and a replay factors each again."""
        factored = []

        def singular(rows):
            factored.append(1)
            raise SingularMatrixError("forced")

        monkeypatch.setattr(numeric, "_sparse_factor", singular)
        for runs in (1, 2):
            with pytest.raises(numeric.AllSamplesSingularError):
                generic_rank(lift_if(unreachable_net(), lifted))
            assert len(factored) == runs * numeric.RESAMPLE_BUDGET


class TestPackedSolveWidth:
    """The solves give each field 122 + (n + 1).bit_length() bits, in whole bytes: 16 at n = 62, 17 at n = 63.

    On a dense closed loop a solve sums up to n - 1 products below p^2 in
    a field.  G = J - I (every off-diagonal entry 1) makes I - G = 2I - J,
    with every off-diagonal entry p - 1; the other G is dense and random.
    Both directions of the solve and the sketch R K of the rank route
    (every node excited and measured) are checked at each width.
    """

    @pytest.mark.parametrize("n, width", [(62, 16), (63, 17)])
    @pytest.mark.parametrize("kind", ["ones", "random"])
    def test_dense_loops_at_the_byte_boundary(self, n, width, kind):
        assert numeric._fields(n, n + 1)[0] == width
        edges = [Edge(j, i, known=i + j > 3) for i in range(n) for j in range(n) if i != j]
        net = NetworkModel(n, edges, range(n), range(n))
        values = [1] * len(edges) if kind == "ones" else random_field_values(field_rng(n), len(edges))
        G = network_matrix(net, values)
        M = [[(int(i == j) - G[i][j]) % PRIME for j in range(n)] for i in range(n)]
        steps = numeric._loop_factor(net, values)
        T = solved_inverse(steps)
        assert mat_mul_field(T, M) == identity_field(n)
        assert mat_mul_field(M, T) == identity_field(n)
        assert library_sketch(net, values, n) == replayed_sketch(net, sensitivity_matrix(net, T), field_rng(n))


class TestFieldPacking:
    """``_pack`` and ``_unpack`` move every field by one ``struct`` call: the byte-join layout, for values below 2^64."""

    # a k that gives each width: 122 + k.bit_length() bits, in whole bytes
    K_OF_WIDTH = {16: 1, 17: 64, 24: 1 << 62}

    @pytest.mark.parametrize("count", [0, 1, 7, 24])
    @pytest.mark.parametrize("width", [16, 17, 24])
    def test_equals_the_byte_join_layout(self, width, count):
        got_width, _, _, layout = numeric._fields(count, self.K_OF_WIDTH[width])
        assert got_width == width and layout.size == width * count
        draw = field_rng(width * 100 + count)
        for _ in range(20):
            values = [draw.randrange(PRIME) for _ in range(count)]
            packed = numeric._pack(values, layout)
            assert packed == pack_reference(values, width)
            assert list(numeric._unpack(packed, layout)) == unpack_reference(packed, width, count) == values

    def test_a_value_of_64_bits_or_more_raises(self):
        layout = numeric._fields(2, 1)[3]
        top = (1 << 64) - 1
        assert numeric._pack([top, 0], layout) == pack_reference([top, 0], 16)
        for wide in (1 << 64, PRIME**2):
            with pytest.raises(struct.error):
                numeric._pack([0, wide], layout)

    def test_every_solved_field_is_canonical(self, monkeypatch):
        """``_unpack`` reads a field's low 8 bytes, so every field of every solve the rank route runs is below p."""
        solve = numeric._solve
        solved = []

        def recorded(steps, rhs, reduce, transposed=False):
            out = solve(steps, rhs, reduce, transposed)
            solved.append(out)
            return out

        monkeypatch.setattr(numeric, "_solve", recorded)
        for net in solve_path_nets():
            for target in (net, decouple(net)):
                solved.clear()
                generic_rank(target)
                width, m = numeric._fields(target.m_unknown, target.n + 1)[0], target.m_unknown
                assert solved
                for out in solved:
                    for x in out:
                        assert x < 1 << 8 * width * m
                        assert all(v < PRIME for v in unpack_reference(x, width, m)), target


def same_draw(net, seed):
    """G and the closed loop of the draw ``sample_sensitivity`` makes at ``seed`` (no singular draw expected), in full."""
    values = random_field_values(field_rng(seed), len(net.edges))
    return network_matrix(net, values), closed_loop(net, values)


def solve_path_nets():
    yield from (minimal_net(), unreachable_net(), chain_net(), fan_net(), bipartite_net(), cyclic9_net())
    yield from general_square_corpus(6, start_seed=40)
    for seed in range(4):
        yield random_network(nodes=9, unknowns=5, excited=3, measured=2, known_density=0.4, seed=seed)


class TestSolvePath:
    def test_solves_equal_the_full_inverse(self):
        """The rows and columns solved from one factor give the matrix built from the whole inverse."""
        for net in solve_path_nets():
            for seed in (0, 1):
                for target in (net, decouple(net)):
                    G, T = same_draw(target, seed)
                    M = [[int(i == j) - G[i][j] for j in range(target.n)] for i in range(target.n)]
                    assert mat_mul_field(T, M) == identity_field(target.n)
                    assert sample_sensitivity(target, field_rng(seed)) == sensitivity_matrix(target, T)

    def test_solves_through_row_exchanges(self):
        """g(0->1) * g(1->0) = 1 zeroes the (1, 1) pivot a natural-order elimination would take.

        The Markowitz order pivots row 1 on column 2 and row 2 on column 0,
        off the diagonal, so the solves go through a row exchange.
        """
        gen = rng(8)
        for _ in range(10):
            a, c, d = (int(x) for x in gen.integers(1, PRIME, size=3))
            G = [[0, pow(a, -1, PRIME), 0, 0], [a, 0, c, 0], [0, d, 0, 5], [7, 0, 0, 0]]
            steps = loop_factor(G)
            assert pivots(steps) == [(1, 2), (0, 1), (2, 0), (3, 3)]
            T = solved_inverse(steps)
            M = [[(int(i == j) - G[i][j]) % PRIME for j in range(4)] for i in range(4)]
            assert mat_mul_field(T, M) == identity_field(4)
            assert mat_mul_field(M, T) == identity_field(4)

    def test_rank_route_builds_no_dense_matrix(self, monkeypatch):
        """The rank route factors I - G from the edge list: no n x n ``network_matrix`` on the way."""
        routes = (local_identifiability, decoupled_identifiability)
        expected = [[route(net).to_dict() for route in routes] for net in solve_path_nets()]

        def refuse(*args):
            raise AssertionError("network_matrix called on the rank route")

        assert not hasattr(numeric, "network_matrix")
        monkeypatch.setattr(series, "network_matrix", refuse)
        assert [[route(net).to_dict() for route in routes] for net in solve_path_nets()] == expected

    @pytest.mark.parametrize(
        "excited, lifted, copy",
        [
            pytest.param([0], False, 0, id="False-0"),
            pytest.param([0], True, 0, id="True-0"),
            pytest.param([0], True, 1, id="True-1"),
            pytest.param([0, 1], False, 0, id="wide-False-0"),
            pytest.param([0, 1], True, 0, id="wide-True-0"),
            pytest.param([0, 1], True, 1, id="wide-True-1"),
        ],
    )
    def test_singular_draw_is_resampled_from_the_next_draws(self, monkeypatch, excited, lifted, copy):
        """A singular I - G discards its draw and draws again; on the lift, a singular measured (0) or excited (1) copy does.

        The sketch's weights come from the stream after the redrawn values,
        with |B||C| = m = 1 on one excitation and |B||C| = 2 > m on two.
        """
        base = NetworkModel(
            3,
            [Edge(0, 1, known=True), Edge(1, 0, known=True), Edge(1, 2, known=False)],
            excited,
            [2],
        )
        net = lift_if(base, lifted)
        # g(0->1) * g(1->0) = 1 makes det(I - G) = 0; the lift lists each copy's edges in the order of ``base``
        cycle = {copy * len(base.edges) + i for i, e in enumerate(base.edges) if e.known}
        draws = []

        def patched(gen, count):
            values = random_field_values(gen, count)
            if count != len(net.edges):  # a sketch row's weights
                return values
            draws.append(values)
            if len(draws) == 1:
                return [1 if i in cycle else v for i, v in enumerate(values)]
            return values

        monkeypatch.setattr(numeric, "random_field_values", patched)
        seen = calls(numeric.rank_field, lambda: generic_rank(net, seed=3))
        # the real draws from the same stream, with the singular one dropped
        gen = field_rng(3)
        real = [random_field_values(gen, len(net.edges)) for _ in range(len(draws))]
        assert len(draws) == 2
        assert [call["A"] for call in seen] == [replayed_sketch(net, sensitivity_matrix(net, closed_loop(net, real[1])), gen)]


def sketch_weights(net, gen):
    """R, m x |B||C|: row i is beta_i (x) alpha_i, the pair drawn next from ``gen``, beta_i first."""
    R = []
    for _ in range(net.m_unknown):
        beta = random_field_values(gen, net.n_measured)
        alpha = random_field_values(gen, net.n_excited)
        R.append([a * b % PRIME for a in alpha for b in beta])  # row (b, c) of K sits at b * |C| + c
    return R


def replayed_sketch(net, K, gen):
    """R K at every shape, with R's rows drawn next from ``gen`` (``sketch_weights``)."""
    return mat_mul_field(sketch_weights(net, gen), K)


def wide_port_nets(count: int = 200):
    """Networks whose sensitivity matrix has more rows than unknown edges, |B||C| > m, about a third of full rank."""
    for seed in range(count):
        gen = field_rng(seed)
        b, c = gen.randint(2, 4), gen.randint(2, 4)
        m = gen.randint(2, b * c - 1)
        n = gen.randint(max(b, c) + 2, 14)
        density = gen.choice([0.1, 0.2, 0.35])
        yield random_network(nodes=n, unknowns=m, excited=b, measured=c, known_density=density, seed=seed)


def narrow_port_nets(count: int = 60):
    """Networks whose sensitivity matrix has at most as many rows as unknown edges, |B||C| <= m, about a third of full row rank."""
    for seed in range(count):
        gen = field_rng(seed)
        b, c = gen.randint(1, 2), gen.randint(1, 3)
        n = gen.randint(max(b, c) + 3, 12)
        m = gen.randint(b * c, min(2 * b * c + 2, n))
        density = gen.choice([0.1, 0.2, 0.35])
        yield random_network(nodes=n, unknowns=m, excited=b, measured=c, known_density=density, seed=seed)


class TestSketch:
    def test_sketched_rank_equals_the_rank_of_the_same_samples_k(self):
        """On wide and narrow ports alike, the m x m sketch of a sample has the rank of that sample's full K."""
        ranks = Counter()
        for net in [*wide_port_nets(), *narrow_port_nets()]:
            for seed in range(5):
                for target in (net, decouple(net)):
                    gen = field_rng(seed)
                    steps = numeric._sample_factors(target, gen)
                    full = rank_field(sensitivity_matrix(target, unit_solve(steps)))
                    sketched = numeric._sample_rank(target, gen, steps)
                    assert sketched == full, (target, seed)
                    rows = net.n_excited * net.n_measured
                    ranks[rows > net.m_unknown, full == min(rows, net.m_unknown)] += 1
        assert min(ranks.values()) >= 100 and len(ranks) == 4

    @pytest.mark.parametrize("lifted", [False, True])
    def test_rank_field_sees_the_sketch_on_every_shape(self, lifted):
        """``rank_field`` gets R K, m x m, R's rows drawn after the edge values, whether |B||C| exceeds m or not."""
        wide = list(wide_port_nets(12))
        others = [fan_net(), bipartite_net(), *general_square_corpus(4, start_seed=40)]
        others.append(random_network(nodes=9, unknowns=8, excited=2, measured=3, known_density=0.3, seed=1))
        for net in [lift_if(net, lifted) for net in wide + others]:
            seen = calls(numeric.rank_field, lambda: generic_rank(net, seed=7))
            assert len(seen) == 1
            gen = field_rng(7)
            sketch = replayed_sketch(net, sample_sensitivity(net, gen), gen)
            assert seen[0]["A"] == sketch
            assert len(sketch) == len(sketch[0]) == net.m_unknown

    @pytest.mark.parametrize("lifted", [False, True])
    def test_each_sample_draws_its_weights_after_its_own_values(self, monkeypatch, lifted):
        """Over three samples of a deficient wide-port net, ``rank_field`` gets R_s K_s, sample by sample.

        Each sample draws its edge values, then its m pairs (beta_i, alpha_i),
        and the next sample's values follow them in the stream.
        """
        net = next(
            net
            for net in wide_port_nets()
            if max(generic_rank(lift_if(net, lift), seed=7) for lift in (False, True)) < net.m_unknown
        )
        net = lift_if(net, lifted)
        monkeypatch.setattr(numeric, "_samples_needed", lambda n, m: 3)
        seen = calls(numeric.rank_field, lambda: generic_rank(net, seed=7))
        assert len(seen) == 3
        gen = field_rng(7)
        for call in seen:
            K = sample_sensitivity(net, gen)
            assert call["A"] == replayed_sketch(net, K, gen)
            assert len(K) > net.m_unknown == len(call["A"])


class TestGenericRank:
    def test_minimal_net(self):
        assert generic_rank(minimal_net()) == 1

    def test_unreachable_rank_deficient(self):
        assert generic_rank(unreachable_net()) == 0

    def test_fan_full_rank(self):
        assert generic_rank(fan_net()) == 2

    def test_deterministic_in_seed(self):
        net = fan_net()
        assert generic_rank(net, seed=42) == generic_rank(net, seed=42)

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        draws = []
        sample = numeric._sample_factors

        def counting(*args, **kwargs):
            draws.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(numeric, "_sample_factors", counting)
        return draws

    def test_stops_at_first_full_rank_sample(self, monkeypatch):
        """A full-rank sample is a certificate; a deficient net draws s* samples, 1 at this size."""
        draws = self._count_draws(monkeypatch)
        for net, expected_draws, nonzero in ((fan_net(), 1, True), (unreachable_net(), 1, False)):
            draws.clear()
            assert generic_rank(net) == (net.m_unknown if nonzero else 0)
            assert len(draws) == expected_draws
            draws.clear()
            assert generic_det_nonzero(net) is nonzero
            assert len(draws) == expected_draws

    def test_deficient_net_draws_exactly_the_needed_samples(self, monkeypatch):
        """A deficient net and its lift draw s* samples; a full-rank net still stops at its first."""
        draws = self._count_draws(monkeypatch)
        monkeypatch.setattr(numeric, "_samples_needed", lambda n, m: 3)
        assert generic_rank(unreachable_net()) == 0
        assert len(draws) == 3
        draws.clear()
        assert generic_rank(decouple(unreachable_net())) == 0
        assert len(draws) == 3
        draws.clear()
        assert generic_rank(fan_net()) == 2
        assert len(draws) == 1

    @pytest.mark.parametrize("lifted", [False, True])
    def test_singular_budget_exhausted_raises(self, monkeypatch, lifted):
        """A sample whose RESAMPLE_BUDGET draws are all singular ends the rank test; no later sample retries."""
        draws = []

        def singular(net, values):
            draws.append(1)
            raise SingularMatrixError("forced")

        monkeypatch.setattr(numeric, "_loop_factor", singular)
        monkeypatch.setattr(numeric, "_samples_needed", lambda n, m: 3)
        with pytest.raises(numeric.AllSamplesSingularError):
            generic_rank(lift_if(unreachable_net(), lifted))
        assert len(draws) == numeric.RESAMPLE_BUDGET

    def test_one_sample_meets_the_bound_at_benchmark_sizes(self):
        # the ``check`` workload draws up to 40 nodes and 24 unknown edges
        assert all(numeric._samples_needed(n, m) == 1 for n in range(2, 41) for m in range(1, 25))

    def test_largest_nets_need_more_than_one_sample(self):
        n = MAX_NODES
        assert numeric._samples_needed(n, n * (n - 1)) >= 2
        assert numeric._samples_needed(n, n * (n - 1) // 2) >= 2

    def test_no_sample_count_once_q_reaches_one(self):
        """q = 2mn / (p - 1 - 2n) >= 1 bounds nothing: ValueError, from integer arithmetic alone."""
        for n, m in ((2**40, 2**40), (1, (PRIME - 3) // 2)):  # the second has 2mn = p - 1 - 2n exactly
            with pytest.raises(ValueError, match=rf"^no sample count bounds the failure probability at n={n}, m={m}$"):
                numeric._samples_needed(n, m)

    def test_chosen_sample_count_meets_the_bound(self):
        """q^s* <= FAILURE_BOUND < q^(s* - 1), in exact arithmetic."""
        eps = Fraction(numeric.FAILURE_BOUND)
        assert eps == Fraction(1, 1 << 40)
        for n in (2, 10, 40, 160, MAX_NODES):
            # the largest m one sample covers, and the next
            one = (PRIME - 1 - 2 * n) // (2 * n << 40)
            for m in sorted({1, n, one, one + 1, n * (n - 1) // 4, n * (n - 1)}):
                q = Fraction(2 * m * n, PRIME - 1 - 2 * n)
                s = numeric._samples_needed(n, m)
                assert q**s <= eps
                assert s == 1 or q ** (s - 1) > eps

    def test_single_trial_already_generic(self):
        """Each seed's single sample hits the generic rank; instability would be a bug."""
        from corpus import general_square_corpus

        for net in general_square_corpus(15, start_seed=100):
            assert numeric._samples_needed(net.n, net.m_unknown) == 1
            per_seed = {generic_rank(net, seed=s) for s in range(5)}
            assert len(per_seed) == 1


class TestGenericDet:
    def test_minimal_true(self):
        assert generic_det_nonzero(minimal_net()) is True

    def test_chain_true(self):
        assert generic_det_nonzero(chain_net()) is True

    def test_unreachable_false(self):
        assert generic_det_nonzero(unreachable_net()) is False

    def test_requires_square(self):
        net = NetworkModel(
            3, [Edge(0, 2, known=False), Edge(1, 2, known=False)], [0, 1], [2]
        )
        # two unknowns but 2*1 pairs: square; drop one excitation to break it
        bad = NetworkModel(3, net.edges, [0], [2])
        with pytest.raises(NotSquareError):
            generic_det_nonzero(bad)

    def test_requires_separable(self):
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        with pytest.raises(NotSeparableError):
            generic_det_nonzero(net)
