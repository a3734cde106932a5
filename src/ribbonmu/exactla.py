"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python integers
and fraction-free elimination, so there is no overflow, no rational
arithmetic and no floating-point round-off anywhere.  The main entry
points are

* :func:`smith_normal_form` -- U * M * V = D with unimodular U, V and a
  nonnegative diagonal satisfying the divisibility chain d1 | d2 | ...,
  from Kannan-Bachem Hermite normal forms, so U and V stay polynomial
  in size; :func:`cokernel_invariants` reduces for the diagonal only,
  without building U and V.
* :func:`determinant` -- fraction-free (Bareiss) exact determinant.
* :func:`signature_and_determinant` -- both invariants of a symmetric
  form, a fold over :func:`_symmetric_pivots`, the one symmetric pass:
  it yields each leading minor, repairs a zero one by a shear, and
  yields 0 for a null variable.  Its D_{n-1} can certify a cyclic
  cokernel, with no Smith reduction.

Matrices are immutable values (safe to share across threads); the
algorithms copy entries into plain lists of ints internally.  Empty
matrices (0x0, n x 0, 0 x n) are legal everywhere: the empty matrix is
the Seifert matrix of the unknot, so the degenerate cases are load
bearing rather than corner cases.

Cost model.  All three eliminations do work only where the matrix has
nonzeros, with one code path for dense and sparse input.  Dense input
still costs O(n^3) operations on growing integers; a form of
bandwidth w costs about O(n * w^2), so the sparse forms S + S^t of
long braid closures stay cheap.

* Envelopes.  Each Bareiss row keeps its envelope, one past its last
  nonzero.  Step k updates row i only on [k+1, max(end_i, end_k)),
  since fill-in never leaves the union of the two envelopes.  In the
  symmetric pass a row i >= end_k has m[k][i] = 0, so the step visits
  only the rows k+1 .. end_k - 1.
* Deferred rescale.  A row that is zero in the pivot column is only
  multiplied by p / prev at each step.  The chain of those exact
  steps telescopes to x * D_now / D_then, where D_then is the pivot at
  which the row was last exact and D_now the current one.  The
  quotient is the Bareiss intermediate the eager chain would hold, so
  one floor division on the row's next use is exact.  Untouched rows
  cost nothing.  A pivot repair brings only the rows it reads up to
  date, and changes only the pivot row and its envelope.
* Smith diagonal.  The reduction for D alone has two phases.  First
  it pivots on units, exactly: one row operation per row that is
  nonzero in the unit's column, over the pivot row's support, and the
  pivot row retires uncleared, since the column operations that would
  clear it touch only that row.  No row or column moves.  Then comes
  the core, the block with no unit left.  The core is reduced modulo
  R = |det|: 2 x 2 xgcd row and column steps gather each pivot,
  gcd(pivot, R) splits off, and the rest continues modulo the quotient
  until R = 1.  Only pivot rows are reduced, and a row step adds less
  than R^2, so entries stay near 2 log2 R bits.  Without the
  determinant of a square nonsingular matrix (rectangular, singular or
  unknown), two Hermite forms (see below) first turn the core into a
  triangular r x r block, r its rank, whose determinant is the product
  of its diagonal.  On the 1196-row form of a 1201-letter braid the unit
  phase leaves an 11 x 11 core.
* Smith with transforms.  Each Hermite form adds one row at a time to
  a reduced form of the rows before it, and works only right of the
  pivot column it clears.  The forms stay reduced, so their entries
  are bounded by minors of the input, and U and V stay polynomial: on
  seeded dense input up to 30 x 30 their largest entry had at most 2.7
  times the bits of the Hadamard bound.  Dense input costs O(n^3)
  operations on integers of O(n log n) bits per form, and a few forms
  suffice.  Two seeded 48 x 48 matrices with entries in [-50, 50] and
  101-digit determinants got transforms of 101 and 201 digits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import compress
from operator import eq, index


class InputError(ValueError):
    """Input the package rejects; the base of every error class it defines."""


class DimensionError(InputError):
    """Operands have incompatible or illegal dimensions."""


class FormError(InputError):
    """A matrix fails the structural requirements of a bilinear form."""


class _Value:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, for type
    checkers, and its ``__init__`` validates the arguments and stores
    them once, in signature order, with :meth:`_set`.  The instance dict
    then holds exactly the fields: equality, hashing and repr read them
    in that order, and pickle and deepcopy restore the dict directly,
    without ``__setattr__``.
    """

    # Not @dataclass: its import (inspect with it) and exec-built methods cost ~30 ms per CLI start.

    def _set(self, **fields: object) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class IntMatrix(_Value):
    """Immutable integer matrix; ``entries[i][j]`` is row i, column j."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int,
                 entries: tuple[tuple[int, ...], ...]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(entries) != rows:
            raise DimensionError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise DimensionError(f"expected {cols} columns, got {len(row)}")
        self._set(rows=rows, cols=cols, entries=entries)

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from nested sequences of ints; ``cols`` disambiguates zero-row shapes."""
        c = (len(rows[0]) if rows else 0) if cols is None else cols
        return IntMatrix(len(rows), c, tuple(tuple(map(index, row)) for row in rows))

    @staticmethod
    def empty() -> IntMatrix:
        return IntMatrix(0, 0, ())

    # -- basic structure ---------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(map(eq, self.entries, zip(*self.entries)))

    def transpose(self) -> IntMatrix:
        # zip(*()) is empty, so a 0 x c matrix needs its c empty rows spelled out
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join("[" + " ".join(str(a) for a in row) + "]"
                         for row in self.entries)


class SnfResult(_Value):
    """Smith decomposition U * M * V = D of the input M.

    U and V are square and unimodular; D has the same shape as M and is
    diagonal with d1 | d2 | ... and every di >= 0.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix) -> None:
        self._set(U=U, D=D, V=V)


def _smith_diagonal(m: list[list[int]], det: int | None = None) -> tuple[int, list[int]]:
    """The rank of the matrix m, which is overwritten, and its invariant
    factors >= 2, the Smith diagonal's entries other than 1 and 0.

    Unit pivots come first (:func:`_unit_pivots`), then the core they
    leave is reduced modulo |det| (:func:`_core_mod_det`).  Unless
    ``det`` is the nonzero determinant of the square matrix m, the core
    first becomes an r x r triangular block, r its rank, with the same
    nonzero invariant factors: the row Hermite form of the core, then
    that of the form's transpose.  Its |det| is the product of its
    diagonal.  Working modulo the determinant follows Domich, Kannan and
    Trotter (1987), Math. Oper. Res. 12.
    """
    core = _unit_pivots(m)
    units = len(m) - len(core)  # each unit pivot retires one row
    if not det:
        form, _ = _hermite(core, len(core[0]) if core else 0)
        core, _ = _hermite([list(c) for c in zip(*form)], len(form))
        det = math.prod(r[i] for i, r in enumerate(core))
    return units + len(core), _core_mod_det(core, abs(det))


def _unit_pivots(m: list[list[int]]) -> list[list[int]]:
    """Pivot on units while any is left; the core they leave.

    A unit p at (i, j) clears column j with one row operation per other
    live row that is nonzero there, inside row i's support.  Row i then
    retires uncleared: column j is zero in every other live row, so the
    column operations that would clear row i touch row i alone, and they
    leave the diagonal entry 1.  The core is the block of the live rows
    and columns, which holds no unit.  Row operations run over the
    pivot row's nonzeros, not its envelope: on the 1196-row form of a
    1201-letter braid, fill-in spread pivot rows of about 15 nonzeros
    over about 580 columns.  Only rows changed since their last scan are
    scanned again: a tridiagonal form whose pivots cascade one unit per
    sweep, bottom up, would be cubic if every sweep rescanned every row.
    """
    cols = len(m[0]) if m else 0
    live = m[:]
    col_live = [True] * cols
    dirty = {id(r) for r in live}  # rows that may have gained a unit
    while dirty:
        pos = 0
        while pos < len(live):
            row = live[pos]
            if id(row) not in dirty:
                pos += 1
                continue
            dirty.discard(id(row))
            support = list(compress(range(cols), row))
            values = [row[c] for c in support]
            j = next((c for c, x in zip(support, values) if x == 1 or x == -1), None)
            if j is None:
                pos += 1
                continue
            del live[pos]
            col_live[j] = False
            p = row[j]
            for r in [r for r in live if r[j]]:
                q = r[j] * p  # r[j] / p, as p = +-1
                for c, y in zip(support, values):
                    r[c] -= q * y
                dirty.add(id(r))
    keep = list(compress(range(cols), col_live))
    return [[r[c] for c in keep] for r in live]


def _core_mod_det(a: list[list[int]], det: int) -> list[int]:
    """Invariant factors >= 2 of the square matrix a, given R = |det a| > 0.

    R kills coker(a), so the reduction works modulo R.  Pivot k is
    gathered by 2 x 2 xgcd steps: row steps clear column k, then column
    steps meet the entries of row k that the pivot does not divide, and
    dirty column k again, until neither is left.  The column operations
    that would clear row k then touch row k alone.  The pivot splits off
    d = gcd(pivot, R), which leaves a cokernel of order R // d, so the
    rest continues modulo R // d; R = 1 ends the reduction.  The split
    factors need not divide each other; pairwise gcd/lcm makes them the
    chain.  R must be |det a|: a multiple of it raises ValueError, as the
    product cannot reach it, but a proper divisor gives a smaller group.
    """
    R = det
    n = len(a)
    found = []
    for k in range(n):
        if R == 1:
            break
        pk = a[k]
        pk[k:] = [v % R for v in pk[k:]]
        while True:
            p = pk[k]
            for x in a[k + 1:]:
                b = x[k] % R
                if not b:
                    continue
                if p and not b % p:
                    # Left unreduced: each such step adds less than R^2,
                    # and the row is reduced once, as the pivot row.
                    q = b // p
                    x[k:] = [u - q * v for u, v in zip(x[k:], pk[k:])]
                    continue
                # [pk; x] <- [s, t; -b/g, p/g] [pk; x], unimodular, x[k] -> 0
                g, s, t = _xgcd(p, b)
                pg, bg = p // g, b // g
                pv, xv = pk[k:], x[k:]
                pk[k:] = [(s * v + t * u) % R for v, u in zip(pv, xv)]
                x[k:] = [(pg * u - bg * v) % R for v, u in zip(pv, xv)]
                p = g
            gathered = True
            for j in range(k + 1, n):
                e = pk[j]
                if not e or (p and not e % p):
                    continue
                # columns k, j <- (s col k + t col j, p/g col j - e/g col k)
                g, s, t = _xgcd(p, e)
                pg, eg = p // g, e // g
                for x in a[k:]:
                    u, v = x[k], x[j]
                    x[k], x[j] = (s * u + t * v) % R, (pg * v - eg * u) % R
                p = g
                gathered = False
            if gathered:
                break
        d = math.gcd(p, R)
        if d > 1:
            found.append(d)
            R //= d
    if R != 1:
        raise ValueError(
            f"the invariant factors' product is not |det| = {det}: wrong determinant")
    return list(_invariant_chain(found))


def _invariant_chain(factors: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors >= 2 of the direct sum of Z_d over ``factors``.

    Each pair (di, dj), i < j, becomes (gcd, lcm) in turn.  On the
    exponents of any one prime that is a compare-exchange (min, max),
    and running it over all pairs in this order is a selection sort, so
    the result is a divisibility chain; the 1s it leaves are dropped.
    """
    d = list(factors)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) >= 0 and Bezout coefficients with s * a + t * b = g."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, s1, t, t1 = b, r, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a >= 0 else (-a, -s, -t)


def _hermite(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of columns [0, width) of ``rows``, in place.

    Entries from column ``width`` on ride along: they receive every row
    operation, so a rider that starts as a row of the identity ends as
    the row of the transform.  Returns the nonzero rows in pivot order,
    with positive pivots and every entry above a pivot p in [0, p), and
    the rows that vanished, in input order.

    Kannan-Bachem: rows enter one at a time.  A row is cleared left to
    right against the rows already in the form; where it meets a pivot
    it does not divide, a 2 x 2 gcd step replaces that pivot by the gcd.
    Its first entry under no pivot makes it a new pivot row.  Then every
    entry above a changed or new pivot, and every entry right of a
    changed row's pivot, is reduced modulo the pivot below it, bottom
    row first.  So the form of the rows seen so far is always the
    reduced one, whose entries are bounded by minors of the input, and
    so is the transform while no row has vanished.
    """
    form: dict[int, list[int]] = {}  # pivot column -> row
    vanished = []
    for x in rows:
        changed = set()
        c = 0
        while True:
            c = next((j for j in range(c, width) if x[j]), None)
            if c is None:
                vanished.append(x)
                break
            b = form.get(c)
            if b is None:
                if x[c] < 0:  # x is zero left of c
                    x[c:] = [-a for a in x[c:]]
                form[c] = x
                changed.add(c)
                break
            q, r = divmod(x[c], b[c])
            if r == 0:
                x[c:] = [u - q * v for u, v in zip(x[c:], b[c:])]
                continue
            # [b; x] <- [s, t; -a/g, p/g] [b; x], unimodular, x[c] -> 0
            p, a = b[c], x[c]
            g, s, t = _xgcd(p, a)
            pg, ag = p // g, a // g
            bc, xc = b[c:], x[c:]
            b[c:] = [s * v + t * u for v, u in zip(bc, xc)]
            x[c:] = [pg * u - ag * v for v, u in zip(bc, xc)]
            changed.add(c)
        if changed:
            _reduce_above_pivots(form, changed)
    return [form[c] for c in sorted(form)], vanished


def _reduce_above_pivots(form: dict[int, list[int]], changed: set[int]) -> None:
    """Bring every entry at a pivot column other than the pivot's own
    into [0, pivot), given that only the rows and pivots of the columns
    in ``changed`` may be out of range."""
    cols = sorted(form)
    first = next(i for i, c in enumerate(cols) if c in changed)
    last = max(i for i, c in enumerate(cols) if c in changed)
    for i in range(last, -1, -1):
        row = form[cols[i]]
        for c in cols[max(i + 1, first):]:
            b = form[c]
            q = row[c] // b[c]
            if q:
                row[c:] = [u - q * v for u, v in zip(row[c:], b[c:])]


def _unit(i: int, n: int) -> list[int]:
    return [int(i == j) for j in range(n)]


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Works on any rectangular integer matrix, including empty ones, and
    is deterministic for a fixed input.  Kannan-Bachem: Hermite normal
    forms of the rows and of the columns alternate until the matrix is
    diagonal.  The first two forms, one of rows and one of columns,
    find the rank r, move the left null space to the last rows of U and
    the right one to the last columns of V, and leave an r x r
    nonsingular block.  Each further form turns that block between upper
    and lower triangular.  The first pivot whose row or column is not
    yet clear only ever shrinks to a divisor, strictly whenever it does
    not divide its row, so the alternation ends.  A diagonal d_i that
    does not divide a later d_j is folded: row i += row j, and the next
    form replaces d_i by gcd(d_i, d_j).  Every form is reduced, so U and
    V stay polynomial in size; zeros come last.
    """
    rows, cols = matrix.rows, matrix.cols
    # The block's rows belong to side 0 (rows of U) or side 1 (rows of
    # V^t); each form works on the rows of the other side, so it takes
    # the block's columns, each followed by its rider: the row of U or
    # V^t that made it.  The first form takes the input's short side (the
    # rows of a tall input, the columns of a wide one), so the null space
    # splits off the input's own vectors; off the columns of a Hermite
    # form, whose entries are as large as its minors, the null rows of V
    # grew to about 5x the Hadamard bound in bits (20 x 24, in [-50, 50]).
    side = int(rows >= cols)  # flipped at the top of each pass
    block = (matrix.transpose() if side else matrix).to_lists()
    riders = [[_unit(i, rows) for i in range(rows)], [_unit(j, cols) for j in range(cols)]]
    null: list[list[list[int]]] = [[], []]
    while True:
        side ^= 1
        width = len(block)
        form, vanished = _hermite(
            [[r[j] for r in block] + rider for j, rider in enumerate(riders[side])], width)
        riders[side] = [r[width:] for r in form]
        null[side] += [r[width:] for r in vanished]
        block = [r[:width] for r in form]
        if any(any(r[i + 1:]) for i, r in enumerate(block)):
            continue
        d = [r[i] for i, r in enumerate(block)]
        # Each d_i is folded with its smallest non-multiple d_j only: the
        # larger ones would multiply into the transforms.
        folds = []
        for i in range(len(d)):
            bad = [j for j in range(i + 1, len(d)) if d[j] % d[i]]
            if bad:
                folds.append((i, min(bad, key=d.__getitem__)))
        if not folds:
            break
        for i, j in folds:  # row j is still unchanged when it is added
            block[i][j] += d[j]
            riders[side][i] = [x + y for x, y in zip(riders[side][i], riders[side][j])]
    return SnfResult(
        U=IntMatrix.from_rows(riders[0] + null[0], cols=rows),
        D=_diagonal_matrix(d, rows, cols),
        V=IntMatrix.from_rows(riders[1] + null[1], cols=cols).transpose(),
    )


def _diagonal_matrix(d: Sequence[int], rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with d on its diagonal, zeros after it."""
    m = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(d):
        m[i][i] = x
    return IntMatrix.from_rows(m, cols=cols)


def _envelope(row: list[int]) -> int:
    """One past the index of the last nonzero entry of row; 0 if none."""
    return next(compress(range(len(row), 0, -1), reversed(row)), 0)


def _catch_up(row: list[int], lo: int, hi: int, then: int, now: int) -> None:
    """Apply a row's deferred Bareiss rescale to row[lo:hi]: x * now / then,
    exact (see the module docstring), for the pivot ``then`` at which the
    row was last exact and the current pivot ``now``."""
    if then != now:
        row[lo:hi] = [x * now // then for x in row[lo:hi]]


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    The empty 0x0 determinant is 1 (empty product).
    """
    if not matrix.is_square:
        raise DimensionError(
            f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    n = matrix.rows
    m = matrix.to_lists()
    end = [_envelope(row) for row in m]  # nonzeros of row i lie left of end[i]
    exact = [1] * n  # the pivot at which each row was last rescaled
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    end[k], end[i] = end[i], end[k]
                    exact[k], exact[i] = exact[i], exact[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row, e = m[k], end[k]
        _catch_up(pivot_row, k, e, exact[k], prev)
        p = pivot_row[k]
        # Bareiss guarantees exact division by the previous pivot.  A row
        # with a zero in column k is left alone: its rescale by p / prev
        # is deferred to its next use (_catch_up).
        for i in range(k + 1, n):
            row = m[i]
            if row[k]:
                hi = max(end[i], e)
                _catch_up(row, k, end[i], exact[i], prev)
                a = row[k]
                row[k + 1:hi] = [(x * p - a * y) // prev
                                 for x, y in zip(row[k + 1:hi], pivot_row[k + 1:hi])]
                end[i], exact[i] = hi, p
        prev = p
    return sign * prev


# Bound by the benchmark tracer (perfbench/spans.py) until ROADMAP item 2.
def invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """Diagonal entries >= 2 of the Smith form (the torsion data)."""
    return cokernel_invariants(matrix)[1]


def cokernel_invariants(matrix: IntMatrix, det: int | None = None,
                        minor: int = 0) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion invariant factors of coker(matrix).

    The matrix is read as a presentation: columns are relations among
    ``rows`` free generators.  The block left after the unit pivots is
    reduced modulo a determinant (see :func:`_smith_diagonal`).  A caller
    that already knows the nonzero determinant of a square matrix passes
    it as ``det`` (either sign), which saves the two Hermite forms that
    would find it.  The value is trusted, so it must be this matrix's
    own: a wrong one raises ValueError only when the factors cannot
    multiply to it, as a multiple of the true one, and a proper divisor
    gives another group with no error (diag(3, 5), ``det=3``: Z3).

    Beside it, ``minor`` may be any multiple of d_{n-1}, the gcd of the
    (n-1)-minors and the product of all invariant factors but the last
    (0 is one).  gcd(minor, det) = 1 then makes the group Z_|det|, with no
    reduction.  It is trusted too: a non-multiple can give a wrong cyclic
    group with no error (diag(3, 3), ``det=9``, ``minor=1``: Z9).
    """
    if det and not matrix.is_square:
        raise DimensionError(
            f"a determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    if det and math.gcd(minor, det) == 1:
        return 0, _invariant_chain((abs(det),))
    rank, chain = _smith_diagonal(matrix.to_lists(), det)
    return matrix.rows - rank, tuple(chain)


def _symmetric_pivots(m: list[list[int]]) -> Iterator[int]:
    """The one symmetric pass: Bareiss elimination on the upper triangle
    of the square matrix m, in place.  Step k yields the leading minor
    D_k, never 0, or 0 for a variable null in the trailing block.

    A zero pivot m[k][k] is repaired by a shear of variable k: for the
    first j > k with m[k][j] != 0, the congruence x_k -> x_k + c * x_j
    changes row k alone.  Its upper part gains c times column j, read
    from the upper triangle of rows k+1 .. j, and its pivot becomes
    c * (2 * m[k][j] + c * m[j][j]), nonzero for c = -1 if
    m[j][j] = -2 * m[k][j], else c = 1.  Only rows k .. j are brought up
    to date first.  The shear is unimodular, so Sylvester's identity
    keeps every division exact and the determinant unchanged.  With no
    such j, variable k is null and is skipped with D_{k-1} kept: by
    Sylvester's identity the later steps are the pass on the form
    without it.  Rows are updated as in :func:`determinant`, within
    their envelopes and with deferred rescales; by symmetry only rows
    i < end[k] can have m[k][i] != 0.  The lower triangle is never read.
    """
    end, exact, prev = [_envelope(row) for row in m], [1] * len(m), 1
    for k in range(len(m)):
        pivot_row = m[k]
        if pivot_row[k] == 0:
            j = next(compress(range(k + 1, end[k]), pivot_row[k + 1:end[k]]), None)
            if j is None:
                yield 0
                continue
            for i in range(k, j + 1):
                _catch_up(m[i], i, end[i], exact[i], prev)
                exact[i] = prev
            a, d, hi = pivot_row[j], m[j][j], max(end[k], end[j])
            c = -1 if d == -2 * a else 1
            column = [m[r][j] for r in range(k + 1, j)] + m[j][j:hi]
            pivot_row[k + 1:hi] = [x + c * y for x, y in zip(pivot_row[k + 1:hi], column)]
            pivot_row[k] = c * (2 * a + c * d)
            end[k] = hi
        e = end[k]
        _catch_up(pivot_row, k, e, exact[k], prev)
        p = pivot_row[k]
        for i in range(k + 1, e):
            a = pivot_row[i]
            if a:
                row, hi = m[i], max(end[i], e)
                _catch_up(row, i, end[i], exact[i], prev)
                row[i:hi] = [(x * p - a * y) // prev
                             for x, y in zip(row[i:hi], pivot_row[i:hi])]
                end[i], exact[i] = hi, p
        prev = p
        yield p


def signature_and_determinant(form: IntMatrix) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer form, in one pass."""
    return _symmetric_fold(form)[:2]


def _symmetric_fold(form: IntMatrix) -> tuple[int, int, int]:
    """Signature, determinant and D_{n-1} of a symmetric form, a fold over
    :func:`_symmetric_pivots`.  Pivot k is the leading minor D_k, so
    sign(D_k * D_{k-1}) is the sign of the k-th diagonal entry of a
    congruence diagonalization.  A null variable (pivot 0) adds 0 to the
    signature and makes the determinant 0; else that is the last pivot,
    and D_{n-1} the one before (1 if n <= 1): a minor of a unimodularly
    congruent form, so a multiple of the gcd of the (n-1)-minors."""
    if not form.is_square:
        raise DimensionError(
            f"signature needs a square matrix, got {form.rows}x{form.cols}")
    if not form.is_symmetric:
        raise FormError("signature needs a symmetric matrix")
    sig, det, minor, prev = 0, 1, 1, 1
    for p in _symmetric_pivots(form.to_lists()):
        det = det and p  # the last pivot, and 0 from the first null variable on
        if p:
            sig += 1 if (p > 0) == (prev > 0) else -1
            minor, prev = prev, p
    return sig, det, minor


# Bound by the benchmark tracer (perfbench/spans.py) until ROADMAP item 2.
def signature(form: IntMatrix) -> int:
    """Signature of a symmetric integer form, exactly."""
    return signature_and_determinant(form)[0]
