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

from support import identity, snf_diagonal_oracle


def column(a: int, b: int) -> InducedMap:
    return InducedMap.from_columns([[a, b]])


class TestAlinking:
    def test_gcd_rule_for_single_columns(self):
        rng = random.Random(61)
        for _ in range(100):
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            g = gcd(a, b)
            expected = 0 if g == 0 else (g if g >= 2 else 1)
            assert alinking(column(a, b)) == expected

    @pytest.mark.parametrize("rows, group", [
        ([[3, 0], [0, 5]], "Z15"),
        ([[1, 0], [0, 3]], "Z3"),
        ([[1, 0], [0, 1]], "0"),
        ([[2, 0], [0, 4]], "Z2 \u2295 Z4"),
    ], ids=["cyclic", "one-torsion-summand", "trivial", "two-torsion-summands"])
    def test_finite_cokernel_is_named_as_its_group(self, rows, group):
        with pytest.raises(ClassificationError) as error:
            alinking(InducedMap(IntMatrix.from_rows(rows)))
        assert str(error.value) == (f"cokernel {group} has free rank 0; alinking is only "
                                    "defined on cokernels Z+Z, Z, and Z+Z/n")

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
    def test_mod2_is_reduction(self):
        rng = random.Random(63)
        for _ in range(100):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            iota = column(a, b)
            assert mod2_alinking(iota) == alinking(iota) % 2
