"""Finite abelian groups in invariant-factor form.

A group is stored as its canonical chain of invariant factors
d1 | d2 | ... | dk with every di >= 2; the empty chain is the trivial
group.  Elementary divisors (prime powers) are derived on demand, which
is the natural direction here because Smith normal form hands us the
invariant-factor chain directly.

The doubling test -- is G isomorphic to H + H for some H? -- holds iff
every elementary divisor p^k occurs with even multiplicity.  It is the
executable form of the torsion obstruction: the combined torsion of
Seifert-hypersurface homology of ribbon-move equivalent 2-links is
always such a double.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .exactla import IntMatrix, cokernel_invariants


class DoublingHypothesisError(ValueError):
    """A doubling hypothesis required by a combination rule fails."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Canonical invariant-factor presentation of a finite abelian group."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, {a} does not divide {b}")

    @staticmethod
    def trivial() -> FiniteAbelianGroup:
        return FiniteAbelianGroup(())

    @staticmethod
    def cyclic(n: int) -> FiniteAbelianGroup:
        """Z_n; n = 1 gives the trivial group."""
        if n < 1:
            raise ValueError(f"cyclic group order must be positive, got {n}")
        return FiniteAbelianGroup(() if n == 1 else (n,))

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def elementary_divisors(self) -> Counter[int]:
        """Multiset of prime powers p^k whose direct sum gives the group."""
        out: Counter[int] = Counter()
        for d in self.invariant_factors:
            for p, k in _factorize(d).items():
                out[p ** k] += 1
        return out

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " ⊕ ".join(f"Z{d}" for d in self.invariant_factors)


def from_elementary_divisors(prime_powers: Iterable[int]) -> FiniteAbelianGroup:
    """Reassemble the canonical chain from a multiset of prime powers.

    Grouping by prime and right-aligning the descending power lists, the
    j-th largest invariant factor is the product of the j-th largest
    power of each prime.
    """
    by_prime: dict[int, list[int]] = {}
    for q in prime_powers:
        fac = _factorize(q)
        if len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        ((p, k),) = fac.items()
        by_prime.setdefault(p, []).append(p ** k)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for layer in range(depth):
        f = 1
        for powers in by_prime.values():
            if layer < len(powers):
                f *= powers[layer]
        factors.append(f)
    factors.reverse()
    return FiniteAbelianGroup(tuple(factors))


def from_presentation(matrix: IntMatrix) -> FiniteAbelianGroup:
    """Torsion part of the abelian group presented by the matrix columns.

    For a square matrix with nonzero determinant this is the whole
    cokernel.  A presentation with free quotient still yields its
    torsion part here; use :func:`cokernel` when the free rank matters.
    """
    _, torsion = cokernel_invariants(matrix)
    return FiniteAbelianGroup(torsion)


def cokernel(matrix: IntMatrix) -> tuple[int, FiniteAbelianGroup]:
    """Free rank and torsion group of coker(matrix)."""
    rank, torsion = cokernel_invariants(matrix)
    return rank, FiniteAbelianGroup(torsion)


def direct_sum(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Canonical invariant factors of g + h."""
    return from_elementary_divisors(
        list((g.elementary_divisors() + h.elementary_divisors()).elements()))


def is_isomorphic(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> bool:
    """Canonical forms make isomorphism plain list equality."""
    return g.invariant_factors == h.invariant_factors


def is_double(g: FiniteAbelianGroup) -> FiniteAbelianGroup | None:
    """Return h with g = h + h if one exists, else None.

    g is a double exactly when every elementary divisor occurs with
    even multiplicity; the half is obtained by halving multiplicities.
    """
    divisors = g.elementary_divisors()
    if any(m % 2 for m in divisors.values()):
        return None
    return from_elementary_divisors(
        [q for q, m in divisors.items() for _ in range(m // 2)])


def combine_doubles(a: FiniteAbelianGroup, b: FiniteAbelianGroup,
                    c: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Given that a+b and b+c are both doubles, return p with a+c = p+p.

    The two hypotheses force, for every prime power q, that the
    multiplicities of q in a and in c have the same parity as its
    multiplicity in b, so their sum is even and halving is well defined.
    """
    if is_double(direct_sum(a, b)) is None:
        raise DoublingHypothesisError(
            f"first hypothesis fails: ({a}) + ({b}) is not of the form X + X")
    if is_double(direct_sum(b, c)) is None:
        raise DoublingHypothesisError(
            f"second hypothesis fails: ({b}) + ({c}) is not of the form Y + Y")
    half = is_double(direct_sum(a, c))
    assert half is not None, "parity argument guarantees a + c is a double"
    return half


# -- integer factorization ------------------------------------------
# Deterministic Miller-Rabin (the 12-base set below is exact for all
# n < 3.3 * 10^24) plus Pollard rho, so invariant factors as large as
# determinants of sizeable integer matrices factor quickly.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(0, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; n must be >= 1."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    rng = random.Random(n)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out
