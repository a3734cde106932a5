import random
from collections import Counter
from math import isqrt, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ribbonmu import (
    DimensionError,
    FormError,
    IntMatrix,
    cokernel_invariants,
    determinant,
    intersection_form,
    seifert_matrix_from_braid,
    signature_and_determinant,
    smith_normal_form,
)
from ribbonmu.exactla import _core_mod_det

from support import (
    block_diag,
    chain_from_elementary_divisors_oracle,
    det_cofactor,
    det_fraction,
    elementary_divisors_oracle,
    identity,
    matmul,
    matsub,
    rand_braid_knot,
    rand_matrix,
    rand_symmetric,
    rand_unimodular,
    snf_diagonal_oracle,
    sturm_signature,
    time_limit,
    zeros,
)

E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def snf_is_valid(m: IntMatrix) -> None:
    res = smith_normal_form(m)
    assert matmul(res.U, m, res.V) == res.D
    assert determinant(res.U) in (1, -1)
    assert determinant(res.V) in (1, -1)
    diag = res.D.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert res.D.entries[i][j] == 0


class TestSmithNormalForm:
    def test_worked_example_matches_reduction_oracle(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert snf_diagonal_oracle(m) == [2, 4]
        assert smith_normal_form(m).D.diagonal() == (2, 4)
        snf_is_valid(m)

    def test_identity(self):
        m = identity(3)
        res = smith_normal_form(m)
        assert res.D == identity(3)
        snf_is_valid(m)

    def test_zero_matrix(self):
        m = zeros(2, 2)
        assert smith_normal_form(m).D == m

    @pytest.mark.parametrize("rows,cols", [(0, 0), (3, 0), (0, 3), (1, 4), (4, 1)])
    def test_degenerate_shapes(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        m = rand_matrix(rng, rows=rows, cols=cols)
        snf_is_valid(m)

    def test_deterministic(self):
        rng = random.Random(5)
        m = rand_matrix(rng, max_dim=6)
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_wide_input_transposes_its_tall_transpose(self):
        # A wide input's first form takes its columns, as a tall input's
        # takes its rows, so the two decompositions mirror entry for entry.
        rng = random.Random(33)
        shapes = [(0, c) for c in range(1, 5)] + [(1, 7), (2, 40), (12, 30), (20, 24)]
        shapes += [(r, rng.randint(r + 1, 9)) for r in (rng.randint(1, 8) for _ in range(60))]
        for rows, cols in shapes:
            if rng.random() < 0.3:  # rank below the short side
                inner = rng.randint(0, rows)
                m = matmul(rand_matrix(rng, rows=rows, cols=inner, lo=-6, hi=6),
                           rand_matrix(rng, rows=inner, cols=cols, lo=-6, hi=6))
            else:
                m = rand_matrix(rng, rows=rows, cols=cols)
            wide, tall = smith_normal_form(m), smith_normal_form(m.transpose())
            assert wide.U == tall.V.transpose(), (rows, cols)
            assert wide.D == tall.D.transpose(), (rows, cols)
            assert wide.V == tall.U.transpose(), (rows, cols)

    def test_random_decompositions_and_oracle(self):
        rng = random.Random(101)
        for _ in range(120):
            m = rand_matrix(rng, max_dim=6, lo=-30, hi=30)
            snf_is_valid(m)
            assert list(smith_normal_form(m).D.diagonal()) == snf_diagonal_oracle(m)


class TestDiagonalOnlySmith:
    """cokernel_invariants reduces without U and V."""

    @staticmethod
    def check(m: IntMatrix) -> None:
        diag = snf_diagonal_oracle(m)
        res = smith_normal_form(m)
        assert matmul(res.U, m, res.V) == res.D
        assert list(res.D.diagonal()) == diag
        rank = sum(1 for d in diag if d != 0)
        torsion = tuple(d for d in diag if d >= 2)
        assert cokernel_invariants(m) == (m.rows - rank, torsion)
        assert cokernel_invariants(m)[1] == torsion

    @pytest.mark.parametrize("rows,cols", [(0, 0), (3, 0), (0, 3), (1, 1)])
    def test_empty_and_tiny(self, rows, cols):
        self.check(zeros(rows, cols))

    def test_rectangular(self):
        rng = random.Random(16)
        for _ in range(80):
            self.check(rand_matrix(rng, max_dim=7, lo=-20, hi=20))

    def test_rank_deficient(self):
        rng = random.Random(17)
        for _ in range(60):
            inner = rng.randint(0, 3)
            a = rand_matrix(rng, rows=rng.randint(1, 6), cols=inner, lo=-6, hi=6)
            b = rand_matrix(rng, rows=inner, cols=rng.randint(1, 6), lo=-6, hi=6)
            self.check(matmul(a, b))
        # wide, tall and square products whose rank is below both sides
        for rows, cols in [(4, 14), (14, 4), (12, 12)]:
            for _ in range(20):
                inner = rng.randint(0, min(rows, cols) - 1)
                a = rand_matrix(rng, rows=rows, cols=inner, lo=-6, hi=6)
                b = rand_matrix(rng, rows=inner, cols=cols, lo=-6, hi=6)
                self.check(matmul(a, b))


def hadamard_bits(m: IntMatrix) -> int:
    """Bits of the Hadamard bound on every minor of m: the smaller of the
    products of its row norms and of its column norms, each at least 1."""
    def squared(vectors):
        return prod(max(1, sum(x * x for x in v)) for v in vectors)
    return isqrt(min(squared(m.entries), squared(m.transpose().entries))).bit_length() + 1


class TestTransformSize:
    """U and V stay polynomial: the largest entry of either has at most
    three times the bits of M's Hadamard bound.  The reduction that
    carried U and V along reached 5677 digits on a 48 x 48 matrix whose
    determinant has 101.

    Twice is not enough.  The first row form leaves rows of U about as
    large as the determinant, and merging two coprime diagonal entries
    d_i, d_j into 1, d_i * d_j needs multipliers about as large as d_j
    on both sides, so one merge already doubles the bits.  Over 900
    seeded square inputs up to 30 x 30 the worst ratio was 2.7.
    """

    def check(self, m: IntMatrix) -> None:
        TestDiagonalOnlySmith.check(m)  # U M V = D, and D against the oracle
        res = smith_normal_form(m)
        bits = max((abs(x).bit_length() for t in (res.U, res.V)
                    for row in t.entries for x in row), default=0)
        assert bits <= 3 * hadamard_bits(m), (m.rows, m.cols)

    def test_dense_square(self):
        rng = random.Random(30)
        for n in range(1, 31):
            self.check(rand_matrix(rng, rows=n, cols=n))

    def test_rectangular(self):
        rng = random.Random(31)
        for _ in range(60):
            self.check(rand_matrix(rng, max_dim=30, lo=-20, hi=20))

    def test_rank_deficient(self):
        rng = random.Random(32)
        for _ in range(40):
            inner = rng.randint(0, 12)
            a = rand_matrix(rng, rows=rng.randint(1, 30), cols=inner, lo=-6, hi=6)
            b = rand_matrix(rng, rows=inner, cols=rng.randint(1, 30), lo=-6, hi=6)
            self.check(matmul(a, b))


class TestDeterminant:
    def test_examples_against_cofactor_oracle(self):
        m1 = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert det_cofactor(m1) == 3
        assert determinant(m1) == 3
        m2 = IntMatrix.from_rows([[2, 1], [1, -2]])
        assert det_cofactor(m2) == -5
        assert determinant(m2) == -5

    def test_empty_is_one(self):
        assert determinant(IntMatrix.empty()) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_random_against_cofactor(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(0, 5)
            m = rand_matrix(rng, rows=n, cols=n, lo=-9, hi=9)
            assert determinant(m) == det_cofactor(m)

    def test_fraction_oracle_against_cofactor(self):
        # det_fraction feeds the Sturm signature oracle and alexander_at,
        # so it is checked against cofactor expansion, not against Bareiss
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randint(0, 6)
            lo = rng.choice((-1, -3, -50))
            m = rand_matrix(rng, rows=n, cols=n, lo=lo, hi=-lo)
            assert det_fraction(m) == det_cofactor(m)

    def test_unimodular_products(self):
        rng = random.Random(8)
        for _ in range(40):
            p = rand_unimodular(rng, rng.randint(1, 6))
            assert determinant(p) in (1, -1)


class TestCokernel:
    def test_multiplication_by_three(self):
        assert cokernel_invariants(IntMatrix.from_rows([[3]])) == (0, (3,))

    def test_column_vector(self):
        m = IntMatrix.from_rows([[2], [4]])
        assert snf_diagonal_oracle(m) == [2]
        assert cokernel_invariants(m) == (1, (2,))

    def test_no_relations(self):
        assert cokernel_invariants(IntMatrix.from_rows([], cols=0)) == (0, ())
        m = IntMatrix(2, 0, ((), ()))
        assert cokernel_invariants(m) == (2, ())

    def test_det_equals_product_of_invariant_factors(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, rows=n, cols=n, lo=-12, hi=12)
            d = determinant(m)
            if d == 0:
                continue
            prod = 1
            for f in cokernel_invariants(m)[1]:
                prod *= f
            assert prod == abs(d)


class TestSignature:
    def test_positive_definite_rank_two(self):
        assert signature_and_determinant(IntMatrix.from_rows([[2, 1], [1, 2]]))[0] == 2

    def test_indefinite_rank_two(self):
        assert signature_and_determinant(IntMatrix.from_rows([[2, 1], [1, -2]]))[0] == 0

    def test_zero_matrix(self):
        assert signature_and_determinant(zeros(4, 4))[0] == 0
        assert signature_and_determinant(IntMatrix.empty())[0] == 0

    def test_e8_against_sturm_oracle(self):
        e8 = IntMatrix.from_rows(E8_ROWS)
        assert sturm_signature(e8) == 8
        assert signature_and_determinant(e8)[0] == 8

    def test_hyperbolic_pair(self):
        assert signature_and_determinant(IntMatrix.from_rows([[0, 1], [1, 0]]))[0] == 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(FormError):
            signature_and_determinant(IntMatrix.from_rows([[1, 2], [3, 4]]))
        almost = tridiagonal([2] * 6).to_lists()
        almost[5][4] = 0  # asymmetric in its last row only
        assert not IntMatrix.from_rows(almost).is_symmetric
        with pytest.raises(FormError):
            signature_and_determinant(IntMatrix.from_rows(almost))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            signature_and_determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_congruence_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            q = rand_symmetric(rng, max_dim=5)
            p = rand_unimodular(rng, q.rows)
            assert (signature_and_determinant(matmul(p.transpose(), q, p))[0]
                    == signature_and_determinant(q)[0])

    def test_block_additivity_and_negation(self):
        rng = random.Random(12)
        for _ in range(40):
            q1 = rand_symmetric(rng, max_dim=4)
            q2 = rand_symmetric(rng, max_dim=4)
            s1, s2 = signature_and_determinant(q1)[0], signature_and_determinant(q2)[0]
            assert signature_and_determinant(block_diag(q1, q2))[0] == s1 + s2
            assert signature_and_determinant(matsub(zeros(q1.rows, q1.rows), q1))[0] == -s1

    def test_random_against_sturm_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            q = rand_symmetric(rng, max_dim=6)
            assert signature_and_determinant(q)[0] == sturm_signature(q)


# Blocks with known (signature, determinant), for congruence tests.
KNOWN_BLOCKS = (
    (IntMatrix.from_rows(E8_ROWS), 8, 1),
    (matsub(zeros(8, 8), IntMatrix.from_rows(E8_ROWS)), -8, 1),
    (IntMatrix.from_rows([[0, 1], [1, 0]]), 0, -1),
    (IntMatrix.from_rows([[2, 1], [1, 4]]), 2, 7),
    (IntMatrix.from_rows([[-2, 1], [1, -6]]), -2, 11),
    (IntMatrix.from_rows([[2, 1], [1, -8]]), 0, -17),
    (IntMatrix.from_rows([[0]]), 0, 0),
)


def structured_symmetric(rng: random.Random) -> IntMatrix:
    """Symmetric matrix that is often hard on a symmetric elimination:
    zero or sparse diagonals, hyperbolic pairs, repeated rows, zeros."""
    n = rng.randint(0, 7)
    zero_diag = rng.random() < 0.5
    bound = rng.choice((0, 1, 3, 40))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diag:
                m[i][j] = m[j][i] = rng.randint(-bound, bound)
    q = IntMatrix.from_rows(m, cols=n)
    shape = rng.random()
    if shape < 0.2 and n >= 2:  # last variable repeats the first: singular
        p = identity(n).to_lists()
        for row in p:
            row[-1] = row[0]
        pm = IntMatrix.from_rows(p, cols=n)
        q = matmul(pm.transpose(), q, pm)
    elif shape < 0.4:
        q = block_diag(q, IntMatrix.from_rows([[0, 1], [1, 0]]))
    return q


class TestSignatureAndDeterminant:
    def test_empty_form(self):
        assert signature_and_determinant(IntMatrix.empty()) == (0, 1)

    def test_zero_forms(self):
        for n in range(1, 5):
            assert signature_and_determinant(zeros(n, n)) == (0, 0)

    def test_hyperbolic_and_zero_diagonal_examples(self):
        h = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert signature_and_determinant(h) == (0, -1)
        q = IntMatrix.from_rows([[0, 2, 0], [2, 0, 3], [0, 3, 0]])
        assert signature_and_determinant(q) == (sturm_signature(q), det_cofactor(q))

    def test_structured_against_oracles(self):
        rng = random.Random(18)
        for _ in range(300):
            q = structured_symmetric(rng)
            assert signature_and_determinant(q) == \
                (sturm_signature(q), det_cofactor(q))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            signature_and_determinant(IntMatrix.from_rows([[1, 2]]))
        with pytest.raises(FormError):
            signature_and_determinant(IntMatrix.from_rows([[1, 2], [3, 4]]))

    @settings(max_examples=25, deadline=None)
    @given(blocks=st.lists(st.sampled_from(KNOWN_BLOCKS), min_size=1, max_size=40),
           seed=st.integers(0, 2 ** 32))
    def test_unimodular_congruence_invariance(self, blocks, seed):
        b, sig, det = IntMatrix.empty(), 0, 1
        for block, s, d in blocks:
            if b.rows >= 20 and b.rows + block.rows > 60:
                break
            b, sig, det = block_diag(b, block), sig + s, det * d
        while b.rows < 20:  # pad to the stress size with hyperbolic pairs
            b, det = block_diag(b, KNOWN_BLOCKS[2][0]), -det
        p = rand_unimodular(random.Random(seed), b.rows, steps=2 * b.rows)
        assert signature_and_determinant(matmul(p.transpose(), b, p)) == (sig, det)


def tridiagonal(diagonal: list[int], off: int = 1) -> IntMatrix:
    """Symmetric tridiagonal form with the given diagonal."""
    n = len(diagonal)
    m = [[0] * n for _ in range(n)]
    for i, a in enumerate(diagonal):
        m[i][i] = a
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = off
    return IntMatrix.from_rows(m, cols=n)


def arrow(n: int, far: int = 3) -> IntMatrix:
    """Variable 0 coupled only to the last one, with a path in between:
    the last row is used at step 0 and then not again for n - 3 steps,
    while the pivots in between change."""
    m = tridiagonal([2 + i % 3 for i in range(n)], off=-1).to_lists()
    m[0][1] = m[1][0] = 0
    m[0][n - 1] = m[n - 1][0] = far
    return IntMatrix.from_rows(m, cols=n)


HYPERBOLIC = IntMatrix.from_rows([[0, 1], [1, 0]])

# Sparse forms with the shapes that need pivot repair or deferred rescales.
SPARSE_FORMS = (
    [tridiagonal([0 if i % 3 == 0 else 2 for i in range(n)]) for n in range(1, 9)]
    + [tridiagonal([0] * n, off=2) for n in range(1, 9)]
    + [tridiagonal([(-1) ** i * 2 for i in range(n)], off=3) for n in range(2, 9)]
    + [arrow(n) for n in range(4, 9)] + [arrow(n, far=0) for n in range(4, 8)]
    + [block_diag(*[HYPERBOLIC] * 3), block_diag(tridiagonal([0, 2, 0]), HYPERBOLIC),
       block_diag(tridiagonal([2, 0, 2, 0, 2]), zeros(2, 2)),  # singular tail
       block_diag(HYPERBOLIC, zeros(3, 3)),
       block_diag(arrow(5), tridiagonal([0, 0])),
       # the shear needs c = -1; with c = 1 the 2 x 2 form still comes out
       # right by chance (no row is left to divide by its zero pivot), the
       # 3 x 3 does not
       IntMatrix.from_rows([[0, 1], [1, -2]]),
       IntMatrix.from_rows([[0, 1, 0], [1, -2, 1], [0, 1, 2]]),
       # a null variable before a nonsingular tail
       IntMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 2]])]
)

# Mostly zeros, so rows often miss the pivot column for several steps.
BAND_ENTRY = st.sampled_from((0,) * 7 + (1, -1, 2, -2, 3, -5))


@st.composite
def band_matrices(draw, max_n: int, symmetric: bool) -> IntMatrix:
    """Random matrix whose nonzeros lie within w = 1..4 of the diagonal."""
    n = draw(st.integers(0, max_n))
    w = draw(st.integers(1, 4))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else max(0, i - w), min(n, i + w + 1)):
            m[i][j] = draw(BAND_ENTRY)
            if symmetric:
                m[j][i] = m[i][j]
    return IntMatrix.from_rows(m, cols=n)


class TestSparseInput:
    """Sparse and banded input: the kernels skip zero work, the answers
    stay those of the independent oracles."""

    @pytest.mark.parametrize("form", SPARSE_FORMS, ids=lambda q: f"{q.rows}x{q.rows}")
    def test_structured_forms_against_oracles(self, form):
        det = det_cofactor(form)
        assert signature_and_determinant(form) == (sturm_signature(form), det)
        assert determinant(form) == det
        TestDiagonalOnlySmith.check(form)

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(m=band_matrices(max_n=8, symmetric=False))
    def test_band_determinant_against_cofactor(self, m):
        assert determinant(m) == det_cofactor(m)

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(q=band_matrices(max_n=8, symmetric=True))
    def test_band_forms_against_oracles(self, q):
        assert signature_and_determinant(q) == (sturm_signature(q), det_cofactor(q))

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(m=band_matrices(max_n=14, symmetric=False))
    def test_band_smith_against_oracle(self, m):
        TestDiagonalOnlySmith.check(m)
        assert abs(determinant(m)) == prod(snf_diagonal_oracle(m))

    @pytest.mark.parametrize("kernel", [determinant, signature_and_determinant,
                                        cokernel_invariants])
    def test_long_tridiagonal_form_is_not_cubic(self, kernel):
        # Dense elimination needs several seconds for this form.
        form = tridiagonal([0 if i % 3 == 0 else 2 for i in range(600)])
        with time_limit(1.5):
            result = kernel(form)
        # det by the three-term recurrence D_k = a_k D_{k-1} - D_{k-2}
        before, det = 0, 1
        for a in form.diagonal():
            before, det = det, a * det - before
        expected = {determinant: det, signature_and_determinant: det,
                    cokernel_invariants: (0, (abs(det),))}[kernel]
        assert (result[1] if kernel is signature_and_determinant else result) == expected

    def test_unit_cascade_is_not_cubic(self):
        # 3 on the diagonal, 2 below, -2 above, and a last row ending in
        # (-2, 1): each unit pivot makes a unit in the row above, so the
        # unit phase retires one per sweep, bottom up, and a sweep that
        # rescanned every live row would make it cubic.  By the continuant
        # D_k = 3 D_(k-1) + 4 D_(k-2) = (4^(k+1) + (-1)^k) / 5, then
        # D_n = D_(n-1) - 4 D_(n-2) = (-1)^(n-1).
        n = 1000
        m = tridiagonal([3] * n).to_lists()
        for i in range(n - 1):
            m[i][i + 1], m[i + 1][i] = -2, 2
        m[n - 1][n - 2:] = [-2, 1]
        form = IntMatrix.from_rows(m, cols=n)
        with time_limit(3.0):
            assert cokernel_invariants(form) == (0, ())
            assert determinant(form) == (-1) ** (n - 1)


def oracle_cokernel(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    diag = snf_diagonal_oracle(m)
    return m.rows - sum(1 for d in diag if d), tuple(d for d in diag if d >= 2)


# Symmetric 2 x 2 blocks with a unit entry, keyed by d = det; coker is Z_d.
CYCLIC_BLOCKS = {d: IntMatrix.from_rows([[2, 1], [1, (d + 1) // 2]]) for d in (3, 5, 9, 13, 25)}


def congruent_sum(rng: random.Random, blocks: list[IntMatrix], steps: int) -> IntMatrix:
    """P^t B P for the block sum B and a random unimodular P."""
    b = block_diag(*blocks)
    p = rand_unimodular(rng, b.rows, steps=steps)
    return matmul(p.transpose(), b, p)


def unitless(rng: random.Random, n: int) -> IntMatrix:
    """Square matrix with no entry +-1, so the unit pivots find nothing."""
    entries = (0, 2, -2, 3, -3, 4, 6, -9, 10, 15)
    return IntMatrix.from_rows([[rng.choice(entries) for _ in range(n)] for _ in range(n)],
                               cols=n)


class TestSmithModuloDeterminant:
    """cokernel_invariants(m, det): unit pivots, then a core reduced
    modulo |det|, against the oracle and known block sums."""

    @staticmethod
    def check(m: IntMatrix, det: int | None = None) -> None:
        det = determinant(m) if det is None else det
        assert det != 0
        expected = oracle_cokernel(m)
        assert cokernel_invariants(m, det) == expected
        assert cokernel_invariants(m, -det) == expected
        assert cokernel_invariants(m) == expected
        assert cokernel_invariants(m)[1] == expected[1]

    def test_column_step_reaches_every_row_of_the_pivot_column(self):
        # After an xgcd column step, column k is nonzero below the pivot,
        # so a later column operation must touch all those rows; touching
        # the pivot row alone gave (2, 1168).
        m = IntMatrix.from_rows([[-2, 1, -5, 3, 6], [0, -1, 3, -3, -2], [-4, -3, -4, -6, 3],
                                 [4, -2, 1, -5, -5], [4, 6, -4, -4, -6]])
        assert determinant(m) == -2336
        assert cokernel_invariants(m, -2336) == (0, (2, 2, 584))
        self.check(m)
        # No unit here, and modulo 2 the core is [[0, 1], [0, 1]]: the
        # xgcd column step that gathers pivot 0 swaps the columns of both
        # rows.  Swapping them in row 0 alone leaves a product of 1.
        m = IntMatrix.from_rows([[-4, 7], [-2, 3]])
        assert cokernel_invariants(m, 2) == (0, (2,))
        self.check(m)

    @pytest.mark.parametrize("orders,chain", [
        ((3, 3, 9), (3, 3, 9)), ((5, 25), (5, 25)), ((9, 3, 25, 5), (15, 225)),
        ((3, 9, 13, 13, 9), (3, 117, 117))])
    def test_repeated_and_non_coprime_factors(self, orders, chain):
        rng = random.Random(sum(orders))
        e8 = IntMatrix.from_rows(E8_ROWS)
        for _ in range(5):
            m = congruent_sum(rng, [CYCLIC_BLOCKS[d] for d in orders] + [e8], steps=60)
            assert cokernel_invariants(m, determinant(m)) == (0, chain)
            self.check(m)

    def test_seeded_block_sums_against_elementary_divisors(self):
        rng = random.Random(41)
        for _ in range(30):
            orders = [rng.choice(list(CYCLIC_BLOCKS)) for _ in range(rng.randint(1, 8))]
            blocks = [CYCLIC_BLOCKS[d] for d in orders]
            blocks += [IntMatrix.from_rows([[0, 1], [1, 0]])] * rng.randint(0, 2)
            m = congruent_sum(rng, blocks, steps=4 * 2 * len(blocks))
            expected = chain_from_elementary_divisors_oracle(
                sum((elementary_divisors_oracle((d,)) for d in orders), Counter()))
            assert cokernel_invariants(m, determinant(m)) == (0, expected)

    def test_no_unit_from_the_start(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(150):
            m = unitless(rng, rng.randint(1, 7))
            if determinant(m):
                self.check(m)
                checked += 1
        assert checked > 100

    def test_scaled_forms_have_no_unit(self):
        rng = random.Random(43)
        for _ in range(40):
            q = rand_symmetric(rng, max_dim=6, lo=-9, hi=9)
            m = IntMatrix.from_rows([[6 * x for x in row] for row in q.entries], cols=q.cols)
            if determinant(m):
                self.check(m)

    def test_negative_determinants(self):
        rng = random.Random(44)
        signs = set()
        for _ in range(80):
            m = rand_matrix(rng, rows=(n := rng.randint(1, 6)), cols=n, lo=-12, hi=12)
            det = determinant(m)
            if det:
                signs.add(det > 0)
                self.check(m, det)
        assert signs == {True, False}

    def test_unimodular_forms_stop_at_once(self):
        e8 = IntMatrix.from_rows(E8_ROWS)
        assert cokernel_invariants(e8, 1) == (0, ())
        p = rand_unimodular(random.Random(45), 8, steps=40)
        assert cokernel_invariants(matmul(p.transpose(), e8, p), 1) == (0, ())
        assert cokernel_invariants(IntMatrix.from_rows([[0, 1], [1, 0]]), -1) == (0, ())
        # R = 1 before the first pivot: a unit-free core is left untouched
        core = [[2, 3], [3, 5]]
        assert _core_mod_det(core, 1) == []
        assert core == [[2, 3], [3, 5]]

    def test_braid_forms(self):
        rng = random.Random(46)
        checked = 0
        for _ in range(40):
            form = intersection_form(seifert_matrix_from_braid(rand_braid_knot(rng, max_len=16)))
            _, det = signature_and_determinant(form)
            if form.rows:
                self.check(form, det)
                checked += 1
        assert checked > 30

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(q=band_matrices(max_n=12, symmetric=True))
    def test_banded_forms_against_oracle(self, q):
        det = determinant(q)
        if det:
            self.check(q, det)

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(orders=st.lists(st.sampled_from(sorted(CYCLIC_BLOCKS)), min_size=1, max_size=5),
           p_seed=st.integers(0, 2 ** 32))
    def test_congruent_block_sums_against_oracle(self, orders, p_seed):
        m = congruent_sum(random.Random(p_seed), [CYCLIC_BLOCKS[d] for d in orders],
                          steps=3 * len(orders))
        self.check(m)

    def test_hard_orders_are_not_factored(self):
        # 4b - 1 = p q with two 21-digit primes; pairs of them give Z_N + Z_N
        b = 7500000000000000013150000000000000004483
        n = 4 * b - 1
        hard = IntMatrix.from_rows([[2, 1], [1, 2 * b]])
        rng = random.Random(47)
        with time_limit(2.0):
            assert cokernel_invariants(hard, n) == (0, (n,))
            pair = congruent_sum(rng, [hard, hard], steps=12)
            assert cokernel_invariants(pair, determinant(pair)) == (0, (n, n))
            mixed = congruent_sum(rng, [hard, CYCLIC_BLOCKS[9], hard], steps=20)
            assert cokernel_invariants(mixed, determinant(mixed)) == (0, (n, 9 * n))
            # without the determinant it is read off the Hermite block
            assert cokernel_invariants(mixed) == (0, (n, 9 * n))
            assert cokernel_invariants(block_diag(pair, zeros(1, 1))) == (1, (n, n))
            wide = IntMatrix.from_rows([row + row[:1] for row in pair.entries])
            assert cokernel_invariants(wide) == (0, (n, n))

    def test_wrong_determinant_raises(self):
        m = CYCLIC_BLOCKS[25]
        for wrong in (50, 75, 7, 2):
            with pytest.raises(ValueError, match="wrong determinant"):
                cokernel_invariants(m, wrong)
        rng = random.Random(48)
        m = congruent_sum(rng, [CYCLIC_BLOCKS[9], CYCLIC_BLOCKS[3]], steps=10)
        with pytest.raises(ValueError, match="wrong determinant"):
            cokernel_invariants(m, 2 * determinant(m))
        with pytest.raises(DimensionError):
            cokernel_invariants(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), 1)

    def test_zero_determinant_takes_the_exact_path(self):
        m = IntMatrix.from_rows([[2, 4], [1, 2]])
        assert cokernel_invariants(m, 0) == oracle_cokernel(m) == (1, ())


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(DimensionError):
            IntMatrix(1, 2, ((1, 2, 3),))
        with pytest.raises(DimensionError, match="negative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(DimensionError, match="negative"):
            IntMatrix(0, -1, ())

    def test_transpose_involution(self):
        rng = random.Random(15)
        m = rand_matrix(rng, max_dim=5)
        assert m.transpose().transpose() == m
