import random
from math import gcd

import pytest

from ribbonmu import (
    ClassificationError,
    InducedMap,
    IntMatrix,
    alinking,
    mod2_alinking,
)

from support import identity, matmul, rand_unimodular, snf_diagonal_oracle, zeros


def column(a: int, b: int) -> InducedMap:
    return InducedMap.from_columns([[a, b]])


class TestAlinking:
    def test_zero_map_no_columns(self):
        assert alinking(InducedMap.from_columns([])) == 0

    def test_zero_matrix(self):
        assert alinking(InducedMap(zeros(2, 3))) == 0

    def test_primitive_column(self):
        assert alinking(column(1, 0)) == 1

    def test_column_2_4(self):
        assert alinking(column(2, 4)) == 2

    def test_column_3_0(self):
        assert alinking(column(3, 0)) == 3
        assert mod2_alinking(column(3, 0)) == 1

    def test_gcd_rule_for_single_columns(self):
        rng = random.Random(61)
        for _ in range(100):
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            g = gcd(a, b)
            expected = 0 if g == 0 else (g if g >= 2 else 1)
            assert alinking(column(a, b)) == expected

    def test_surjective_map_outside_classification(self):
        with pytest.raises(ClassificationError, match="free rank 0"):
            alinking(InducedMap(identity(2)))

    def test_finite_torsion_cokernel_outside_classification(self):
        with pytest.raises(ClassificationError):
            alinking(InducedMap(IntMatrix.from_rows([[2, 0], [0, 4]])))

    def test_against_smith_oracle(self):
        # coker = Z/d1 + Z/d2: alinking is d1 when d2 = 0 (Z+Z -> 0,
        # Z -> 1, Z+Z/n -> n) and undefined otherwise.
        rng = random.Random(64)
        for _ in range(500):
            c = rng.randint(0, 4)
            iota = InducedMap(IntMatrix.from_rows(
                [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(c)]
                 for _ in range(2)], cols=c))
            d1, d2 = (snf_diagonal_oracle(iota.matrix) + [0, 0])[:2]
            if d2 == 0:
                assert alinking(iota) == d1
            else:
                with pytest.raises(ClassificationError, match="free rank 0"):
                    alinking(iota)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            InducedMap(identity(3))


class TestInvariance:
    def test_basis_changes(self):
        rng = random.Random(62)
        cases = [
            InducedMap.from_columns([]),
            column(1, 0),
            column(2, 4),
            column(3, 0),
            InducedMap(IntMatrix.from_rows([[2, 0], [4, 0]])),
            InducedMap(IntMatrix.from_rows([[6, 4], [3, 2]])),
        ]
        for iota in cases:
            v = alinking(iota)
            for _ in range(50):
                p = rand_unimodular(rng, 2)
                q = rand_unimodular(rng, iota.matrix.cols)
                transformed = InducedMap(matmul(p, iota.matrix, q))
                assert alinking(transformed) == v

    def test_mod2_is_reduction(self):
        rng = random.Random(63)
        for _ in range(100):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            iota = column(a, b)
            assert mod2_alinking(iota) == alinking(iota) % 2
