"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately take different algorithmic routes from the
package under test: the Smith-form oracle diagonalizes with first-found
pivots and fixes divisibility afterwards by gcd/lcm sweeps, the
determinant oracles are cofactor expansion and Gaussian elimination
over ``Fraction`` (which also serves the characteristic polynomial and
the Alexander values), the signature oracle counts
characteristic-polynomial root signs with Sturm sequences, group
isomorphism is checked by brute-force element-order counting, group
arithmetic by trial-division elementary divisors, and braid Seifert
matrices by testing every pair of loops.  A braid's cover group also
has a presentation of strands - 1 generators from its Burau matrix at
t = -1, with no Seifert matrix at all, and a signature from the same
matrices letter by letter; its k-fold cyclic covers have presentations
from the Burau matrix and from a Seifert matrix alike.  Braid words
shrink by far commutation, which keeps the braid.  Torus knots (also as
scrambled words) and linear plumbings come with their signature,
determinant and cover group in closed form, so forms of any size have
answers the package did not compute.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from functools import cache
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod
from operator import add, mul, sub
from pathlib import Path

import ribbonmu
from ribbonmu import BraidWord, IntMatrix, SeifertMatrix, validate_seifert
from ribbonmu.cli import main

# -- limits -----------------------------------------------------------


class TimeLimitExceeded(Exception):
    """Not TimeoutError: that is an OSError, which a file read's handler
    would turn into an ordinary read error."""


@contextmanager
def time_limit(seconds: float):
    """Turn a hang into a failure: raise TimeLimitExceeded after ``seconds``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def digit_limit_lifted():
    """Python's int <-> str digit limit off, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def address_space_cap(kb: int):
    """A ``preexec_fn`` that caps the child's address space at ``kb`` kB,
    as ``ulimit -v`` does (Linux enforces RLIMIT_AS; a hard limit already
    below it is kept)."""
    def cap():
        import resource

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = kb * 1024
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return cap


def package_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this ribbonmu."""
    src = Path(ribbonmu.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(src))


def run_json(*argv: str) -> dict:
    """The record of one in-process ``ribbonmu`` run that must exit 0."""
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return json.loads(out.getvalue())


# -- matrix helpers ---------------------------------------------------


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix.from_rows([[0] * cols for _ in range(rows)], cols=cols)


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def matadd(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert (a.rows, a.cols) == (b.rows, b.cols), "matadd needs equal shapes"
    return IntMatrix.from_rows([list(map(add, ra, rb)) for ra, rb in zip(a.entries, b.entries)],
                               cols=a.cols)


def matsub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert (a.rows, a.cols) == (b.rows, b.cols), "matsub needs equal shapes"
    return IntMatrix.from_rows([list(map(sub, ra, rb)) for ra, rb in zip(a.entries, b.entries)],
                               cols=a.cols)


def matmul(*factors: IntMatrix) -> IntMatrix:
    """The product of the factors, left to right: schoolbook row-by-column
    sums, so it checks a production U * M * V = D independently."""
    product = factors[0]
    for f in factors[1:]:
        assert product.cols == f.rows, "matmul needs matching inner dimensions"
        columns = list(zip(*f.entries)) if f.rows else [()] * f.cols
        product = IntMatrix.from_rows(
            [[sum(map(mul, row, col)) for col in columns] for row in product.entries],
            cols=f.cols)
    return product


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    """Block-diagonal sum of square matrices; no blocks give the 0x0 matrix."""
    n = sum(b.rows for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        assert b.is_square, "block_diag needs square blocks"
        for i, row in enumerate(b.entries):
            out[at + i][at:at + b.rows] = row
        at += b.rows
    return IntMatrix.from_rows(out, cols=n)


def to_decimal_rows(matrix: IntMatrix) -> list[list[str]]:
    """The wire format as nested lists: every entry as its decimal string.

    ``json.dumps`` of this is what ``cli._write_json`` must stream.
    """
    return [[str(x) for x in row] for row in matrix.entries]


def from_decimal_rows(rows: list[list[str | int]]) -> IntMatrix:
    """Read wire-format rows back: ``IntMatrix`` takes exact integers only."""
    return IntMatrix.from_rows([[int(x) for x in row] for row in rows])


def alexander_at(seifert: SeifertMatrix, t: int) -> int:
    """Exact value det(S - t * S^t) of the Alexander polynomial form.

    At t = 1 this is the knot validation determinant +-1; at t = -1 it
    is det(S + S^t), the branched double cover homology order up to
    sign.
    """
    s, n = seifert.matrix.entries, seifert.size
    return det_fraction(IntMatrix.from_rows(
        [[s[i][j] - t * s[j][i] for j in range(n)] for i in range(n)], cols=n))


# -- random inputs ----------------------------------------------------


def rand_braid_knot(rng: random.Random, max_strands: int = 5,
                    max_len: int = 12) -> BraidWord:
    """Random braid word whose closure is a knot (rejection sampling)."""
    while True:
        strands = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        letters = []
        for _ in range(length):
            g = rng.randint(1, strands - 1)
            letters.append(g if rng.random() < 0.5 else -g)
        word = BraidWord(strands, tuple(letters))
        if word.closure_components() == 1:
            return word


def rand_matrix(rng: random.Random, max_dim: int = 8, lo: int = -50, hi: int = 50,
                rows: int | None = None, cols: int | None = None) -> IntMatrix:
    r = rng.randint(0, max_dim) if rows is None else rows
    c = rng.randint(0, max_dim) if cols is None else cols
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], cols=c)


def rand_symmetric(rng: random.Random, max_dim: int = 6, lo: int = -50,
                   hi: int = 50) -> IntMatrix:
    n = rng.randint(0, max_dim)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return IntMatrix.from_rows(m, cols=n)


def rand_unimodular(rng: random.Random, n: int, steps: int | None = None) -> IntMatrix:
    """Product of elementary matrices: shears, swaps, and sign flips."""
    m = identity(n).to_lists()
    for _ in range(n + 3 if steps is None else steps):
        kind = rng.random()
        if n < 2 or kind < 0.2:
            if n:
                i = rng.randrange(n)
                m[i] = [-x for x in m[i]]
        elif kind < 0.5:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(m, cols=n)


_SEIFERT_SEEDS = (
    IntMatrix.from_rows([[1, 1], [0, 1]]),
    IntMatrix.from_rows([[1, 1], [0, -1]]),
    IntMatrix.empty(),
)
_STABILIZERS = (
    IntMatrix.from_rows([[0, 1], [0, 0]]),
    IntMatrix.from_rows([[0, 0], [1, 0]]),
)


def rand_seifert(rng: random.Random, max_ops: int = 4) -> SeifertMatrix:
    """Random valid Seifert matrix: catalog seeds grown by unimodular
    congruence, hyperbolic stabilization, and block sums."""
    s = rng.choice(_SEIFERT_SEEDS)
    for _ in range(rng.randint(0, max_ops)):
        kind = rng.random()
        if kind < 0.4:
            p = rand_unimodular(rng, s.rows)
            s = matmul(p.transpose(), s, p)
        elif kind < 0.75:
            s = block_diag(s, rng.choice(_STABILIZERS))
        else:
            s = block_diag(s, rng.choice(_SEIFERT_SEEDS))
    return validate_seifert(s)


def rand_group_factors(rng: random.Random, max_factor: int = 64,
                       max_len: int = 5) -> tuple[int, ...]:
    """Random invariant-factor chain with factors <= max_factor."""
    length = rng.randint(0, max_len)
    factors: list[int] = []
    d = 1
    for _ in range(length):
        d *= rng.choice((1, 1, 2, 2, 3, 4, 5))
        if d < 2:
            d = rng.choice((2, 3))
        if d > max_factor:
            break
        factors.append(d)
    return tuple(factors)


# -- torus knots: answers in closed form at any size -------------------


def torus_letters(p: int, q: int) -> tuple[int, ...]:
    """The word (s1 s2 ... s_{p-1})^q on p strands, whose closure is the
    torus knot T(p, q) when gcd(p, q) = 1."""
    return tuple(range(1, p)) * q


def torus_signature(p: int, q: int) -> int:
    """Signature of T(p, q) by the lattice count (Brieskorn's at k = 2):
    each 0 < i < p, 0 < j < q adds +1 when 1/2 < i/p + j/q < 3/2, -1
    when the sum is outside [1/2, 3/2], and 0 at either end.  The sign
    convention is the package's: the trefoil closure of s1^3 has +2."""
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            twice = 2 * (i * q + j * p)  # 2 pq (i/p + j/q), compared with pq and 3 pq
            total += (p * q < twice < 3 * p * q) - (twice < p * q or twice > 3 * p * q)
    return total


def torus_determinant(p: int, q: int) -> int:
    """|det| of T(p, q), which is |Alexander(-1)|: q for even p, p for
    even q, else 1."""
    return q if p % 2 == 0 else p if q % 2 == 0 else 1


def scrambled_torus_word(rng: random.Random, p: int, q: int, new_strands: int,
                         conjugator: int) -> tuple[int, tuple[int, ...]]:
    """(strands, letters) of a word whose closure is still T(p, q):
    :func:`torus_letters` Markov-stabilized by one letter +-s_n per new
    strand n, then conjugated to w beta w^-1 by a random word w of
    ``conjugator`` letters on all the strands."""
    letters, strands = torus_letters(p, q), p
    for _ in range(new_strands):
        letters += (rng.choice((1, -1)) * strands,)
        strands += 1
    w = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(conjugator))
    return strands, w + letters + tuple(-x for x in reversed(w))


# -- linear plumbings: 2-bridge knots in closed form at any size -------


def plumbing(xs: list[int]) -> list[list[int]]:
    """The Seifert matrix with diagonal x1 .. xn and 1 on the
    superdiagonal, as plain lists.  For even n, S - S^t is tridiagonal
    with zero diagonal, and its leading minors run 1, 0, 1, 0, ..., so
    det(S - S^t) = 1 for any integers x."""
    n = len(xs)
    assert n % 2 == 0, "a plumbing Seifert matrix needs even size"
    rows = []
    for i, x in enumerate(xs):
        row = [0] * n
        row[i] = x
        if i + 1 < n:
            row[i + 1] = 1
        rows.append(row)
    return rows


def plumbing_invariants(xs: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """(signature, det, invariant factors) of S + S^t for S = plumbing(xs),
    every x nonzero.

    S + S^t is tridiagonal: 2x on the diagonal, 1 beside it.  Its leading
    minors are the continuant D_0 = 1, D_1 = 2x_1,
    D_k = 2x_k D_{k-1} - D_{k-2}, so det = D_n.  With every |2x| >= 2,
    |D_k| strictly increases, no leading minor vanishes, and Jacobi's
    rule gives the signature as the sum of sign(D_k D_{k-1}).  Deleting
    row 1 and column n leaves a triangular minor of 1s, so the cover
    group is cyclic of order |D_n|."""
    assert all(xs), "a zero x can make a leading minor vanish"
    prev, d, signature = 0, 1, 0
    for x in xs:
        prev, d = d, 2 * x * d - prev
        signature += 1 if (d > 0) == (prev > 0) else -1
    return signature, d, (abs(d),) if abs(d) > 1 else ()


# -- Smith-form diagonal oracle --------------------------------------


def snf_diagonal_oracle(matrix: IntMatrix) -> list[int]:
    """Diagonalize with first-found pivots (no size optimization), then
    repair divisibility on the diagonal by gcd/lcm sweeps."""
    rows, cols = matrix.rows, matrix.cols
    m = matrix.to_lists()
    n = min(rows, cols)
    for k in range(n):
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        for row in m:
            row[k], row[j] = row[j], row[k]
        while True:
            for i in range(k + 1, rows):
                while m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    m[i] = [a - q * b for a, b in zip(m[i], m[k])]
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
            for j in range(k + 1, cols):
                while m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    for row in m:
                        row[j] -= q * row[k]
                    if m[k][j] != 0:
                        for row in m:
                            row[k], row[j] = row[j], row[k]
            if all(m[i][k] == 0 for i in range(k + 1, rows)):
                break
    diag = [abs(m[i][i]) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if a == 0 and b == 0:
                    continue
                g = gcd(a, b)
                l = 0 if a == 0 or b == 0 else a * b // g
                if g == 0:
                    g, l = l, g
                if (diag[i], diag[j]) != (g, l):
                    diag[i], diag[j] = g, l
                    changed = True
    return diag


# -- braid Seifert matrix oracle -------------------------------------


def seifert_matrix_pairwise(braid: BraidWord) -> IntMatrix:
    """Seifert matrix of a braid closure by testing every pair of loops
    for the three interaction shapes (quadratic in the loop count).

    Loops are found by scanning ahead from each position for the next
    letter of the same generator; the word is read as given."""
    word = braid.letters
    loops = []
    for i, letter in enumerate(word):
        e = next((k for k in range(i + 1, len(word))
                  if abs(word[k]) == abs(letter)), None)
        if e is not None:
            loops.append((i, e))
    m = len(loops)
    sign = lambda x: 1 if x > 0 else -1
    v = [[0] * m for _ in range(m)]
    for a, (i, e) in enumerate(loops):
        v[a][a] = (sign(word[i]) + sign(word[e])) // 2
        for b in range(a + 1, m):
            j, f = loops[b]
            ga, gb = abs(word[i]), abs(word[j])
            if ga == gb:
                if e == j:  # consecutive loops sharing the band at j
                    if word[j] > 0:
                        v[b][a] = -1
                    else:
                        v[a][b] = 1
            elif abs(ga - gb) == 1 and j < e < f:  # interleaved intervals
                if ga > gb:
                    v[b][a] = -1
                else:
                    v[a][b] = 1
    return IntMatrix.from_rows(v, cols=m)


def reduce_far_commutation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word with a letter x and a later x^-1 deleted whenever every
    letter between them is a generator at distance >= 2 from x's,
    repeated until nothing changes.  Such letters commute with x, so the
    result is the same braid.  One pass keeps the word so far as a
    stack: each letter looks back over far letters for its inverse."""
    word = list(letters)
    while True:
        out: list[int] = []
        for x in word:
            for j in range(len(out) - 1, -1, -1):
                if out[j] == -x:
                    del out[j]
                    break
                if abs(abs(out[j]) - abs(x)) < 2:
                    out.append(x)
                    break
            else:
                out.append(x)
        if len(out) == len(word):
            return tuple(out)
        word = out


# -- braid cover group and signature oracles -------------------------


def _coprime_strands(strands: int, letters, k: int) -> tuple[int, tuple[int, ...]]:
    """The word on a strand count prime to k: s_n is appended, a Markov
    stabilization that keeps the closure, until the count is."""
    letters = tuple(letters)
    while gcd(strands, k) != 1:
        letters += (strands,)
        strands += 1
    return strands, letters


@cache
def _burau_blocks(k: int) -> dict[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """For the letters +s_a (key 1) and -s_a (key -1), block row a - 1 of
    the reduced Burau matrix less the identity's, as the columns of its
    blocks at block columns a - 2, a - 1, a: (T, -T - I, I) and
    (I, -T^-1 - I, T^-1), for the companion matrix T of
    1 + t + ... + t^(k-1) (see :func:`burau_cover_presentation`)."""
    d = k - 1
    t = IntMatrix.from_rows([[int(i == j + 1) - (j == d - 1) for j in range(d)]
                             for i in range(d)], cols=d)
    t_inv = matmul(*[t] * (k - 1))  # T^k = I
    one, zero = identity(d), zeros(d, d)
    rows = {1: (t, matsub(zero, matadd(t, one)), one),
            -1: (one, matsub(zero, matadd(t_inv, one)), t_inv)}
    return {sign: tuple(tuple(zip(*block.entries)) for block in blocks)
            for sign, blocks in rows.items()}


def _burau_step(b: list[list[int]], x: int, k: int = 2) -> None:
    """Right-multiply b, in place, by the reduced Burau matrix of the
    letter x at t = T for k (see :func:`burau_cover_presentation`).  The
    factor differs from the identity only in block row i = |x| - 1, so
    each row of b gains its block i times that block row less the
    identity's."""
    d, i = k - 1, abs(x) - 1
    blocks, letter = len(b[0]) // d, _burau_blocks(k)[1 if x > 0 else -1]
    for row in b:
        v = row[i * d:(i + 1) * d]
        if any(v):
            for at, columns in zip((i - 1, i, i + 1), letter):
                if 0 <= at < blocks:
                    row[at * d:(at + 1) * d] = [y + sum(map(mul, v, col)) for y, col
                                                in zip(row[at * d:(at + 1) * d], columns)]


def burau_cover_presentation(strands: int, letters: tuple[int, ...], k: int = 2) -> IntMatrix:
    """B - I for the reduced Burau matrix B of the braid at t = T, whose
    cokernel is the homology of the k-fold cyclic branched cover of the
    closure; T is the companion matrix of 1 + t + ... + t^(k-1), which
    is (k-1)-square with 1 on the subdiagonal and -1 down the last
    column, so T = [[-1]] at k = 2.

    On a strand count n prime to k the cover is an open book whose page
    is the k-fold cover of the disk branched at the n points, a surface
    with one boundary circle, and B is the monodromy on its H1 (Birman
    and Hilden 1973).  Another count is first made prime to k by
    appending s_n, a Markov stabilization, until it is.  B acts on row
    vectors as a grid of (k-1)-blocks: letter +-s_a right-multiplies it
    by the identity with block row i = a - 1 replaced by (T, -T, I) at
    block columns i - 1, i, i + 1 for +s_a and by (I, -T^-1, T^-1) for
    -s_a, columns outside the grid dropped.  The matrix is
    (n - 1)(k - 1)-square at any word length."""
    strands, letters = _coprime_strands(strands, letters, k)
    n = (strands - 1) * (k - 1)
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for x in letters:
        _burau_step(b, x, k)
    for i in range(n):
        b[i][i] -= 1
    return IntMatrix.from_rows(b, cols=n)


def seifert_cover_presentation(s: IntMatrix, k: int) -> IntMatrix:
    """G^k - (G - I)^k with G = (S^t - S)^-1 S^t, whose cokernel is the
    homology of the k-fold cyclic branched cover of the knot with
    Seifert matrix S (Rolfsen 1976, *Knots and Links*, ch. 8).  G is
    integral because det(S^t - S) = +-1; it is solved from
    (S^t - S) G = S^t over Q, with ints and ``Fraction`` only."""
    n, st = s.rows, s.transpose()
    system = [[Fraction(x) for x in ra + rb]
              for ra, rb in zip(matsub(st, s).entries, st.entries)]
    assert _rref(system) == list(range(n)), "S^t - S must be invertible"
    assert all(x.denominator == 1 for row in system for x in row), "S^t - S must be unimodular"
    g = IntMatrix.from_rows([[int(x) for x in row[n:]] for row in system], cols=n)
    return matsub(matmul(*[g] * k), matmul(*[matsub(g, identity(n))] * k))


def _rref(m: list[list[Fraction]]) -> list[int]:
    """Reduce m, overwritten, to reduced row echelon form over Q; the
    pivot column of each of its first rows, in order."""
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [y / m[k][c] for y in m[k]]
        for i, row in enumerate(m):
            if i != k and row[c]:
                f = row[c]
                m[i] = [y - f * z for y, z in zip(row, m[k])]
        pivots.append(c)
    return pivots


@cache
def _burau_skew_form(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The n x n form J with T J T^t = J for the Burau matrix T of every
    letter +-s_1 .. +-s_n: the intersection form of the page, found as
    the one-dimensional solution space over Q.  Its sign is fixed
    explicitly, J[0][1] = 1, which gives the trefoil s_1^3 (on 3
    strands after stabilization) the signature +2 that the package
    gives it; the orientation of the solver's basis plays no part."""
    equations = []
    for a in range(1, n + 1):
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        _burau_step(t, a)
        # (T J T^t)[p][q] - J[p][q] = sum_{u,v} T[p][u] T[q][v] J[u][v] - J[p][q]
        for p, q in product(range(n), repeat=2):
            row = [Fraction(t[p][u] * t[q][v] - (u == p and v == q))
                   for u, v in product(range(n), repeat=2)]
            equations.append(row)
    pivots = _rref(equations)
    [free] = [c for c in range(n * n) if c not in pivots]
    flat = [Fraction(0)] * (n * n)
    flat[free] = Fraction(1)
    for row, c in zip(equations, pivots):
        flat[c] = -row[free]
    scale = 1 / flat[1]  # J[0][1] = 1
    return tuple(tuple(scale * flat[u * n + v] for v in range(n)) for u in range(n))


def burau_signature(strands: int, letters: tuple[int, ...]) -> int:
    """Signature of the closure from Burau matrices at t = -1 alone.

    Gambaudo and Ghys (2005), "Braids and signatures": the signature of
    a product's closure differs from the sum of the factors' by Meyer's
    cocycle of their Burau images, and against one letter, a
    transvection, the cocycle is the sign of one scalar.  Word letter by
    letter: P is the product of the letters before the current one,
    A = P^t and J the page's skew form (:func:`_burau_skew_form`).  For
    letter +-s_{i+1} of sign e, r has -e at i - 1 and +e at i + 1.  If
    (A - I) x = A r has a rational solution x, the letter adds
    sign(x^t J r + (J r)_i); if it has none, it adds 0.  An even strand
    count is stabilized first, as in :func:`burau_cover_presentation`."""
    strands, letters = _coprime_strands(strands, letters, 2)
    n = strands - 1
    form = _burau_skew_form(n)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    total = 0
    for x in letters:
        i, e = abs(x) - 1, 1 if x > 0 else -1
        r = [0] * n
        if i > 0:
            r[i - 1] = -e
        if i + 1 < n:
            r[i + 1] = e
        # A = P^t, so (A r)_u = sum_v P[v][u] r[v] and (A - I)[u][v] = P[v][u] - [u = v]
        system = [[Fraction(p[v][u] - (u == v)) for v in range(n)]
                  + [Fraction(sum(p[v][u] * r[v] for v in range(n)))] for u in range(n)]
        pivots = _rref(system)
        if n not in pivots:  # consistent: free unknowns 0, pivot unknowns from the rows
            solution = [Fraction(0)] * n
            for row, c in zip(system, pivots):
                solution[c] = row[n]
            jr = [sum(map(mul, row, r)) for row in form]
            value = sum(map(mul, solution, jr)) + jr[i]
            total += (value > 0) - (value < 0)
        _burau_step(p, x)
    return total


# -- determinant oracles ---------------------------------------------


def det_cofactor(matrix: IntMatrix) -> int:
    """Cofactor expansion along the first row; exponential, small inputs only."""
    n = matrix.rows
    assert n == matrix.cols

    def rec(m: list[list[int]]) -> int:
        size = len(m)
        if size == 0:
            return 1
        if size == 1:
            return m[0][0]
        total = 0
        for j, a in enumerate(m[0]):
            if a == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * a * rec(minor)
        return total

    return rec(matrix.to_lists())


def det_fraction(matrix: IntMatrix) -> int:
    """Gaussian elimination over ``Fraction`` with the first nonzero
    pivot in each column; exact, and polynomial in the size."""
    n = matrix.rows
    assert n == matrix.cols
    m = [[Fraction(x) for x in row] for row in matrix.entries]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            if f:
                row[k:] = [a - f * b for a, b in zip(row[k:], m[k][k:])]
    assert det.denominator == 1
    return int(det)


# -- Sturm-sequence signature oracle ---------------------------------
# Polynomials are coefficient lists, lowest degree first, Fractions.


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return _poly_trim([c * i for i, c in enumerate(p)][1:])


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _yun_squarefree(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """p = prod f_i ^ i with each f_i squarefree; returns (f_i, i) pairs."""
    if len(p) <= 1:
        return []
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    c = _poly_divmod(p, g)[0]
    d = [x - y for x, y in zip_pad(_poly_divmod(dp, g)[0], _poly_deriv(c))]
    _poly_trim(d)
    out = []
    i = 1
    while len(c) > 1:
        a = _poly_gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c_next = _poly_divmod(c, a)[0]
        d = [x - y for x, y in zip_pad(_poly_divmod(d, a)[0], _poly_deriv(c_next))]
        _poly_trim(d)
        c = c_next
        i += 1
    return out


def zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def _sign_changes(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_pos_neg(p: list[Fraction]) -> tuple[int, int]:
    """Root counts of squarefree p on (0, inf) and (-inf, 0); p(0) != 0."""
    chain = [p[:], _poly_deriv(p)]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    chain = [c for c in chain if c]

    def sign_at_zero(q):
        return 0 if q[0] == 0 else (1 if q[0] > 0 else -1)

    def sign_at_pinf(q):
        return 1 if q[-1] > 0 else -1

    def sign_at_ninf(q):
        s = 1 if q[-1] > 0 else -1
        return s if (len(q) - 1) % 2 == 0 else -s

    v0 = _sign_changes([sign_at_zero(q) for q in chain])
    vp = _sign_changes([sign_at_pinf(q) for q in chain])
    vn = _sign_changes([sign_at_ninf(q) for q in chain])
    return v0 - vp, vn - v0


def charpoly(matrix: IntMatrix) -> list[int]:
    """Coefficients of det(x I - M), lowest degree first, exactly."""
    n = matrix.rows
    points = []
    for x in range(n + 1):
        shifted = IntMatrix.from_rows(
            [[(x if i == j else 0) - matrix.entries[i][j] for j in range(n)]
             for i in range(n)], cols=n)
        points.append((x, det_fraction(shifted)))
    # Lagrange interpolation at 0..n
    coeffs = [Fraction(0)] * (n + 1)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def sturm_signature(matrix: IntMatrix) -> int:
    """Signature = (positive eigenvalues) - (negative ones), counted with
    multiplicity via Yun squarefree split + Sturm chains.  Cross-checked
    internally against Descartes' rule, which is exact for real-rooted
    polynomials."""
    n = matrix.rows
    p_int = charpoly(matrix)
    zeros = 0
    while p_int and p_int[0] == 0:
        p_int = p_int[1:]
        zeros += 1
    p = [Fraction(c) for c in p_int]
    pos = neg = 0
    for factor, mult in _yun_squarefree(p):
        fp, fn = _sturm_pos_neg(factor)
        pos += mult * fp
        neg += mult * fn
    assert pos + neg + zeros == n, "symmetric matrix must have all-real spectrum"
    # Descartes cross-check: sign variations count positive roots exactly
    # when all roots are real.
    d_pos = _sign_changes([0 if c == 0 else (1 if c > 0 else -1) for c in p_int])
    d_neg = _sign_changes(
        [0 if c == 0 else (1 if c > 0 else -1) * (-1) ** i
         for i, c in enumerate(p_int)])
    assert (pos, neg) == (d_pos, d_neg)
    return pos - neg


# -- brute-force finite abelian group oracles ------------------------


def order_multiset(factors: tuple[int, ...]) -> Counter[int]:
    """Element-order counts of Z_f1 + ... + Z_fk; determines the group."""
    counts: Counter[int] = Counter()
    for element in product(*[range(f) for f in factors]):
        counts[lcm(*(f // gcd(x, f) for x, f in zip(element, factors)))] += 1
    return counts


def groups_isomorphic_bruteforce(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return order_multiset(a) == order_multiset(b)


def _trial_prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def elementary_divisors_oracle(factors: tuple[int, ...]) -> Counter[int]:
    """Prime powers p^k whose direct sum is Z_f1 + ... + Z_fk, found by
    trial division of each factor."""
    out: Counter[int] = Counter()
    for f in factors:
        for p, k in _trial_prime_powers(f).items():
            out[p ** k] += 1
    return out


def chain_from_elementary_divisors_oracle(divisors: Counter[int]) -> tuple[int, ...]:
    """Invariant-factor chain with the given prime powers: group them by
    prime, right-align the descending power lists and multiply across."""
    by_prime: dict[int, list[int]] = {}
    for q in divisors.elements():
        [p] = _trial_prime_powers(q)
        by_prime.setdefault(p, []).append(q)
    columns = [sorted(v, reverse=True) for v in by_prime.values()]
    depth = max(map(len, columns), default=0)
    chain = [prod(c[layer] for c in columns if layer < len(c))
             for layer in range(depth)]
    return tuple(reversed(chain))


def _partitions(n: int) -> list[list[int]]:
    if n == 0:
        return [[]]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(acc[:])
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_groups_of_order(n: int) -> list[tuple[int, ...]]:
    """All abelian groups of order n as prime-power factor tuples."""
    if n == 1:
        return [()]
    per_prime = []
    for p, e in _trial_prime_powers(n).items():
        per_prime.append([[p ** part for part in partition]
                          for partition in _partitions(e)])
    out = []
    for combo in product(*per_prime):
        factors: list[int] = []
        for chunk in combo:
            factors.extend(chunk)
        out.append(tuple(sorted(factors)))
    return out


def double_half_bruteforce(factors: tuple[int, ...]) -> tuple[int, ...] | None:
    """Search every abelian group of order sqrt(|G|) for a half of G."""
    n = prod(factors)
    root = isqrt(n)
    if root * root != n:
        return None
    target = order_multiset(factors)
    for candidate in abelian_groups_of_order(root):
        if order_multiset(candidate + candidate) == target:
            return candidate
    return None
