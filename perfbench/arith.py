"""The benchmark's own integer arithmetic, independent of ribbonmu.

Used to build inputs with known answers and to check the program's
outputs.  None of it shares an algorithm with the package: groups are
normalised by gcd/lcm sweeps, doubling is read from the invariant-factor
chain without factoring, determinants are taken modulo primes, and the
Smith identity is tested on random vectors.
"""

from __future__ import annotations

import math
import random

# Miller-Rabin with these bases is exact below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

# The three largest primes below 2**61, for modular determinants.
CHECK_PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907)


def transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def invariant_chain(orders: list[int]) -> list[int]:
    """Invariant factors (each >= 2, d1 | d2 | ...) of the sum of Z_order
    over nonzero orders: gcd/lcm sweeps until each entry divides the later
    ones."""
    d = [abs(x) for x in orders]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return sorted(x for x in d if x >= 2)


def double_half(chain: list[int]) -> list[int] | None:
    """H with G = H + H, read from G's chain: it pairs up d1=d2, d3=d4, ..."""
    if len(chain) % 2 or any(chain[i] != chain[i + 1]
                             for i in range(0, len(chain), 2)):
        return None
    return chain[::2]


def is_one_cycle(word: list[int], strands: int) -> bool:
    at = list(range(strands))
    for letter in word:
        a = abs(letter) - 1
        at[a], at[a + 1] = at[a + 1], at[a]
    p, steps = at[0], 1
    while p != 0:
        p, steps = at[p], steps + 1
    return steps == strands


def is_prime(n: int) -> bool:
    if n >= MR_EXACT_BELOW:
        raise ValueError("Miller-Rabin base set is not a proof above 3.3e24")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
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


def next_prime(n: int, residue: int) -> int:
    """Smallest prime p >= n with p = residue mod 4."""
    n += (residue - n) % 4
    while not is_prime(n):
        n += 4
    return n


def det_mod(m: list[list[int]], p: int) -> int:
    """det(m) mod p by Gaussian elimination over GF(p)."""
    a = [[x % p for x in row] for row in m]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        rk = a[k]
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], rk)]
    return det % p


def is_unimodular(m: list[list[int]]) -> bool:
    """det(m) = +-1 modulo every check prime (square m)."""
    return all(det_mod(m, p) in (1, p - 1) for p in CHECK_PRIMES)


def smith_identity_holds(u, m, v, d, rng: random.Random, trials: int = 3) -> bool:
    """U M V = D, tested exactly on random integer vectors (Freivalds).

    A wrong product survives one trial with probability at most 2**-30.
    """
    cols = len(v)
    for _ in range(trials):
        x = [rng.randint(1, 1 << 30) for _ in range(cols)]
        if matvec(u, matvec(m, matvec(v, x))) != matvec(d, x):
            return False
    return True
