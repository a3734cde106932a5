import random
import subprocess
import sys
from collections import Counter
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ribbonmu import (
    DoublingHypothesisError,
    FiniteAbelianGroup,
    IntMatrix,
    cokernel_invariants,
    combine_doubles,
    direct_sum,
    from_presentation,
    is_double,
)
from ribbonmu import abelian

from support import (
    chain_from_elementary_divisors_oracle,
    double_half_bruteforce,
    elementary_divisors_oracle,
    groups_isomorphic_bruteforce,
    identity,
    order_multiset,
    package_env,
    rand_group_factors,
)

Z = FiniteAbelianGroup


class TestCanonicalForm:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            Z((4, 2))
        with pytest.raises(ValueError):
            Z((1,))
        with pytest.raises(ValueError):
            Z((2, 3))

    def test_trivial(self):
        assert Z(()).is_trivial
        assert prod(Z(()).invariant_factors) == 1

    def test_rendering(self):
        assert str(Z((2, 4, 8))) == "Z2 ⊕ Z4 ⊕ Z8"
        assert str(Z(())) == "0"


class TestFromPresentation:
    def test_positive_definite_rank_two(self):
        assert from_presentation(IntMatrix.from_rows([[2, 1], [1, 2]])) == Z((3,))

    def test_indefinite_rank_two(self):
        assert from_presentation(IntMatrix.from_rows([[2, 1], [1, -2]])) == Z((5,))

    def test_identity_presents_trivial(self):
        assert from_presentation(identity(4)) == Z(())

    def test_torsion_of_non_square(self):
        rank, torsion = cokernel_invariants(IntMatrix.from_rows([[2], [4]]))
        assert rank == 1 and Z(torsion) == Z((2,))


class TestDirectSum:
    def test_same_prime(self):
        assert direct_sum(Z((2,)), Z((2,))) == Z((2, 2))

    def test_coprime_merge(self):
        assert direct_sum(Z((2,)), Z((3,))) == Z((6,))

    def test_merge_example_against_order_oracle(self):
        out = direct_sum(Z((2, 4)), Z((8,)))
        assert out == Z((2, 4, 8))
        assert order_multiset(out.invariant_factors) == order_multiset((2, 4, 8))

    def test_commutative_associative(self):
        rng = random.Random(22)
        for _ in range(100):
            a, b, c = (Z(rand_group_factors(rng, max_len=3)) for _ in range(3))
            assert direct_sum(a, b) == direct_sum(b, a)
            assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    def test_order_multiplicative(self):
        rng = random.Random(23)
        for _ in range(100):
            a = Z(rand_group_factors(rng))
            b = Z(rand_group_factors(rng))
            assert prod(direct_sum(a, b).invariant_factors) == (
                prod(a.invariant_factors) * prod(b.invariant_factors))

    def test_agrees_with_order_oracle(self):
        rng = random.Random(24)
        for _ in range(60):
            a = Z(rand_group_factors(rng, max_factor=16, max_len=3))
            b = Z(rand_group_factors(rng, max_factor=16, max_len=3))
            merged = direct_sum(a, b)
            assert order_multiset(merged.invariant_factors) == order_multiset(
                a.invariant_factors + b.invariant_factors)


class TestIsIsomorphic:
    """Chains are canonical, so isomorphism is ``==``."""

    def test_crt(self):
        assert Z((6,)) == direct_sum(Z((2,)), Z((3,)))

    def test_z4_is_not_z2_z2(self):
        assert Z((4,)) != Z((2, 2))

    def test_trivial(self):
        assert Z(()) == Z(())

    def test_matches_bruteforce(self):
        rng = random.Random(25)
        for _ in range(40):
            a = Z(rand_group_factors(rng, max_factor=16, max_len=3))
            b = Z(rand_group_factors(rng, max_factor=16, max_len=3))
            assert (a == b) == groups_isomorphic_bruteforce(
                a.invariant_factors, b.invariant_factors)


class TestIsDouble:
    def test_z3_is_not_a_double(self):
        assert is_double(Z((3,))) is None

    def test_z5_is_not_a_double(self):
        assert is_double(Z((5,))) is None

    def test_z2_z2(self):
        assert is_double(Z((2, 2))) == Z((2,))

    def test_example_against_bruteforce(self):
        g = Z((2, 2, 4, 4))
        assert double_half_bruteforce(g.invariant_factors) is not None
        assert is_double(g) == Z((2, 4))

    def test_trivial_is_double_of_trivial(self):
        assert is_double(Z(())) == Z(())

    def test_double_of_random_group_recovers_it(self):
        rng = random.Random(26)
        for _ in range(200):
            g = Z(rand_group_factors(rng))
            half = is_double(direct_sum(g, g))
            assert half is not None
            assert half == g

    def test_matches_bruteforce_on_small_groups(self):
        rng = random.Random(27)
        for _ in range(60):
            g = Z(rand_group_factors(rng, max_factor=9, max_len=3))
            half = is_double(g)
            brute = double_half_bruteforce(g.invariant_factors)
            assert (half is None) == (brute is None)
            if half is not None:
                assert order_multiset(half.invariant_factors) == order_multiset(brute)


def _chain(start: int, steps: list[int]) -> tuple[int, ...]:
    """Divisibility chain start | start*m1 | ..., cut before 10^6 is passed."""
    chain, d = [], start
    for m in [1, *steps]:
        d *= m
        if d > 10 ** 6:
            break
        if d > 1:
            chain.append(d)
    return tuple(chain)


# Chains with factors up to 10^6; small starts give long chains, large
# ones large prime factors.
CHAINS = st.builds(
    _chain, st.one_of(st.integers(1, 60), st.integers(1, 10 ** 6)),
    st.lists(st.integers(1, 12), max_size=6))


class TestAgainstElementaryDivisorOracle:
    """direct_sum and is_double work on chains alone; the oracle factors
    every invariant factor by trial division and regroups prime powers."""

    def test_oracle_round_trip(self):
        rng = random.Random(21)
        for _ in range(200):
            factors = _chain(rng.randint(1, 10 ** 6),
                             [rng.randint(1, 12) for _ in range(rng.randint(0, 6))])
            for g in (factors, rand_group_factors(rng)):
                divisors = elementary_divisors_oracle(g)
                assert chain_from_elementary_divisors_oracle(divisors) == g

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(a=CHAINS, b=CHAINS)
    def test_direct_sum(self, a, b):
        expected = chain_from_elementary_divisors_oracle(
            elementary_divisors_oracle(a) + elementary_divisors_oracle(b))
        assert direct_sum(Z(a), Z(b)).invariant_factors == expected

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(a=CHAINS, b=CHAINS, doubled=st.booleans())
    def test_is_double(self, a, b, doubled):
        divisors = elementary_divisors_oracle(a) + elementary_divisors_oracle(b)
        if doubled:
            divisors += elementary_divisors_oracle(a)
        g = Z(chain_from_elementary_divisors_oracle(divisors))
        if any(m % 2 for m in divisors.values()):
            assert is_double(g) is None
        else:
            half = Counter({q: m // 2 for q, m in divisors.items()})
            assert is_double(g) == Z(chain_from_elementary_divisors_oracle(half))


class TestCombineDoubles:
    def test_worked_example(self):
        a, c = Z((2,)), Z((2,))
        b = Z((2, 4, 4))
        assert double_half_bruteforce(direct_sum(a, b).invariant_factors) is not None
        assert double_half_bruteforce(direct_sum(b, c).invariant_factors) is not None
        p = combine_doubles(a, b, c)
        assert p == Z((2,))
        assert direct_sum(a, c) == direct_sum(p, p)

    def test_all_trivial(self):
        assert combine_doubles(Z(()), Z(()), Z(())) == Z(())

    def test_z8_throughout(self):
        z8 = Z((8,))
        assert double_half_bruteforce((8, 8)) is not None
        assert combine_doubles(z8, z8, z8) == z8

    def test_failing_first_hypothesis_is_named(self):
        with pytest.raises(DoublingHypothesisError, match="first"):
            combine_doubles(Z((3,)), Z(()), Z(()))

    def test_failing_second_hypothesis_is_named(self):
        with pytest.raises(DoublingHypothesisError, match="second"):
            combine_doubles(Z((3,)), Z((3,)), Z((5,)))

    def test_broken_parity_argument_raises(self, monkeypatch):
        real = is_double
        seen = []

        def third_call_fails(g):
            seen.append(g)
            return None if len(seen) == 3 else real(g)

        monkeypatch.setattr(abelian, "is_double", third_call_fails)
        with pytest.raises(RuntimeError, match="parity argument"):
            combine_doubles(Z((8,)), Z((8,)), Z((8,)))

    def test_parity_check_survives_python_dash_o(self):
        # -O strips assert statements; the last check must still run
        script = (
            "from ribbonmu import abelian, FiniteAbelianGroup as Z\n"
            "real, seen = abelian.is_double, []\n"
            "def third_call_fails(g):\n"
            "    seen.append(g)\n"
            "    return None if len(seen) == 3 else real(g)\n"
            "abelian.is_double = third_call_fails\n"
            "try:\n"
            "    abelian.combine_doubles(Z((8,)), Z((8,)), Z((8,)))\n"
            "except RuntimeError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('combine_doubles returned without a double')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_output_always_halves_outer_sum(self):
        rng = random.Random(28)
        for _ in range(150):
            x = Z(rand_group_factors(rng, max_len=3))
            y = Z(rand_group_factors(rng, max_len=3))
            b = Z(rand_group_factors(rng, max_len=2))
            # arrange hypotheses to hold by construction
            a = direct_sum(direct_sum(x, x), b)
            c = direct_sum(direct_sum(y, y), b)
            p = combine_doubles(a, b, c)
            assert direct_sum(a, c) == direct_sum(p, p)
