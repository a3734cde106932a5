"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python integers
and fraction-free elimination, so there is no overflow, no rational
arithmetic and no floating-point round-off anywhere.  The main entry
points are

* :func:`smith_normal_form` -- U * M * V = D with unimodular U, V and a
  nonnegative diagonal satisfying the divisibility chain d1 | d2 | ...;
  :func:`cokernel_invariants` and :func:`invariant_factors` run the same
  reduction on the diagonal only, without building U and V.
* :func:`determinant` -- fraction-free (Bareiss) exact determinant.
* :func:`signature_and_determinant` -- both invariants of a symmetric
  form from one fraction-free symmetric elimination.

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
  cost nothing.  A pivot repair first brings the trailing rows up to
  date.  It then mirrors only the rows and columns it reads in full,
  and recomputes the envelopes it changed.
* Smith.  The reduction performs the same operations in the same order
  as a dense one, so U, V and D do not depend on sparsity.  It skips
  only steps that change nothing.  A unit pivot divides everything, so
  the divisibility sweep is skipped.  A column swap with itself is
  skipped.  A column operation touches only the rows that are nonzero
  in the pivot column, which on the diagonal-only path is the pivot
  row alone once the column is cleared.  A row operation touches only
  the source row's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Sequence


class DimensionError(ValueError):
    """Operands have incompatible or illegal dimensions."""


class FormError(ValueError):
    """A matrix fails the structural requirements of a bilinear form."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; ``entries[i][j]`` is row i, column j."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise DimensionError(
                f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError(
                    f"expected {self.cols} columns, got {len(row)}")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from nested sequences; ``cols`` disambiguates zero-row shapes."""
        r = len(rows)
        if r == 0:
            return IntMatrix(0, 0 if cols is None else cols, ())
        c = len(rows[0]) if cols is None else cols
        return IntMatrix(r, c, tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def zero(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def empty() -> IntMatrix:
        return IntMatrix(0, 0, ())

    # -- basic structure ---------------------------------------------

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and self.entries == tuple(zip(*self.entries))

    def transpose(self) -> IntMatrix:
        # zip(*()) is empty, so a 0 x c matrix needs its c empty rows spelled out
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition needs equal shapes")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix subtraction needs equal shapes")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(map(sub, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    # -- serialization -----------------------------------------------
    # Wire format: arrays of arrays of decimal strings, never native
    # numbers, so arbitrary-precision entries survive JSON bit-exactly.

    def to_decimal_rows(self) -> list[list[str]]:
        return [list(map(str, row)) for row in self.entries]

    @staticmethod
    def from_decimal_rows(rows: Sequence[Sequence[str]], cols: int | None = None) -> IntMatrix:
        return IntMatrix.from_rows(
            [[int(str(x), 10) for x in row] for row in rows], cols=cols)

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join("[" + " ".join(str(a) for a in row) + "]"
                         for row in self.entries)


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U * M * V = D of the input M.

    U and V are square and unimodular; D has the same shape as M and is
    diagonal with d1 | d2 | ... and every di >= 0.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.D.diagonal()


def _min_abs_pivot(m: list[list[int]], start: int, rows: int, cols: int) -> tuple[int, int] | None:
    """Nonzero entry of minimal |value| in the trailing submatrix.

    Choosing the smallest pivot keeps coefficient growth in check; naive
    corner pivoting blows entries up exponentially on modest inputs.
    Ties break lexicographically so the decomposition is deterministic.
    """
    best: tuple[int, int] | None = None
    best_abs = 0
    for i in range(start, rows):
        for j in range(start, cols):
            a = m[i][j]
            if a != 0 and (best is None or abs(a) < best_abs):
                best = (i, j)
                best_abs = abs(a)
                if best_abs == 1:
                    return best
    return best


def _smith_reduce(m: list[list[int]], rows: int, cols: int) -> None:
    """Reduce the leading rows x cols block of m in place to Smith form.

    Entries right of the block follow the row operations and rows below
    it follow the column operations; the block never depends on them.
    """

    def row_op(dst: int, src: int, q: int) -> None:  # row dst -= q * row src
        # Row src is zero left of column k, which earlier steps cleared,
        # and right of its envelope, so only that span changes.
        a, b = m[dst], m[src]
        hi = _envelope(b)
        a[k:hi] = [x - q * y for x, y in zip(a[k:hi], b[k:hi])]

    n = min(rows, cols)
    for k in range(n):
        pivot = _min_abs_pivot(m, k, rows, cols)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            m[pi], m[k] = m[k], m[pi]
            if pj != k:  # rows above k are zero in both columns
                for r in m[k:]:
                    r[pj], r[k] = r[k], r[pj]
            p = m[k][k]
            # Clear column k, then row k, by exact floor division; any
            # nonzero remainder becomes the next, strictly smaller pivot.
            dirty = False
            for i in range(rows):
                if i != k and m[i][k] != 0:
                    row_op(i, k, m[i][k] // p)
                    if m[i][k] != 0:
                        dirty = True
            # Column k does not change while row k is cleared, and a
            # column operation leaves rows with a zero there untouched.
            carriers = [r for r in m if r[k]]
            for j in range(cols):
                if j != k and m[k][j] != 0:
                    q = m[k][j] // p
                    for r in carriers:  # col j -= q * col k
                        r[j] -= q * r[k]
                    if m[k][j] != 0:
                        dirty = True
            if dirty:
                pivot = _min_abs_pivot(m, k, rows, cols)
                continue
            if p in (1, -1):  # a unit divides the whole trailing block
                break
            # Pivot must divide the whole trailing block; if not, fold
            # the offending row in and keep reducing.
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)
            pivot = _min_abs_pivot(m, k, rows, cols)

    # Normalize diagonal signs; flipping a row of U keeps it unimodular.
    for k in range(n):
        if m[k][k] < 0:
            m[k] = [-a for a in m[k]]


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Works on any rectangular integer matrix, including empty ones, and
    is deterministic for a fixed input.
    """
    rows, cols = matrix.rows, matrix.cols
    # U rides to the right of M and V below it, starting as identities.
    m = [list(r) + [int(i == j) for j in range(rows)]
         for i, r in enumerate(matrix.entries)]
    m += [[int(i == j) for j in range(cols)] for i in range(cols)]
    _smith_reduce(m, rows, cols)
    return SnfResult(
        U=IntMatrix.from_rows([r[cols:] for r in m[:rows]], cols=rows),
        D=IntMatrix.from_rows([r[:cols] for r in m[:rows]], cols=cols),
        V=IntMatrix.from_rows(m[rows:], cols=cols),
    )


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
    if n == 0:
        return 1
    m = matrix.to_lists()
    end = [_envelope(row) for row in m]  # nonzeros of row i lie left of end[i]
    exact = [1] * n  # the pivot at which each row was last rescaled
    sign = 1
    prev = 1
    for k in range(n - 1):
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
    return sign * (m[n - 1][n - 1] * prev // exact[n - 1])


def invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """Diagonal entries >= 2 of the Smith form (the torsion data)."""
    return cokernel_invariants(matrix)[1]


def cokernel_invariants(matrix: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion invariant factors of coker(matrix).

    The matrix is read as a presentation: columns are relations among
    ``rows`` free generators.
    """
    m = matrix.to_lists()
    _smith_reduce(m, matrix.rows, matrix.cols)
    diag = [m[k][k] for k in range(min(matrix.rows, matrix.cols))]
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d >= 2)
    return matrix.rows - rank, torsion


def _repair_pivot(m: list[list[int]], k: int, end: list[int],
                  exact: list[int], prev: int) -> bool:
    """Make the zero pivot m[k][k] nonzero by a congruence of the
    trailing variables k, k+1, ...; False when the trailing block is zero.

    A later nonzero diagonal entry d is swapped into place.  When the
    whole trailing diagonal vanishes, the shear x_d -> x_d + x_j on a
    coupled pair (d, j) first makes m[d][d] = 2 * m[d][j] nonzero.
    The trailing rows are brought up to date first and their envelopes
    recomputed last.  Only the rows and columns of the variables k, d
    and j are read in full, so only they are mirrored from the upper
    triangle; the rest of the lower triangle stays stale and unread.
    """
    n = len(m)
    for i in range(k, n):
        _catch_up(m[i], i, end[i], exact[i], prev)
        exact[i] = prev
    d = next((d for d in range(k + 1, n) if m[d][d] != 0), None)
    j = None
    if d is None:
        d, j = next(((i, j) for i in range(k, n)
                     for j in compress(range(i + 1, end[i]), m[i][i + 1:end[i]])),
                    (None, None))
        if d is None:
            return False
    for c in (k, d) if j is None else (k, d, j):
        row = m[c]
        for r in range(k, c):
            row[r] = m[r][c]
        for r in range(c + 1, n):
            m[r][c] = row[r]
    if j is not None:
        for r in range(k, n):  # column d += column j, then row d += row j
            m[r][d] += m[r][j]
        m[d][k:] = [a + b for a, b in zip(m[d][k:], m[j][k:])]
    m[k], m[d] = m[d], m[k]  # exchange variables d and k
    for r in range(k, n):
        m[r][k], m[r][d] = m[r][d], m[r][k]
    for i in range(k, d + 1):  # only these rows changed above the diagonal
        end[i] = _envelope(m[i])
    return True


def signature_and_determinant(form: IntMatrix) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer form, in one pass.

    Symmetric Bareiss elimination on the upper triangle: pivot k is the
    leading minor D_k, so sign(D_k * D_{k-1}) is the sign of the k-th
    diagonal entry of a congruence diagonalization.  Zero pivots are
    repaired by unimodular congruences of the trailing variables only
    (:func:`_repair_pivot`), so Sylvester's identity still makes every
    division exact and the determinant does not change.  A zero
    trailing block ends the pass: the rank is k and the determinant 0.
    Rows are updated as in :func:`determinant`, within their envelopes
    and with deferred rescales; by symmetry only rows i < end[k] can
    have m[k][i] != 0.
    """
    if not form.is_square:
        raise DimensionError(
            f"signature needs a square matrix, got {form.rows}x{form.cols}")
    if not form.is_symmetric:
        raise FormError("signature needs a symmetric matrix")
    n = form.rows
    m = form.to_lists()
    end = [_envelope(row) for row in m]
    exact = [1] * n
    sig, prev = 0, 1
    for k in range(n):
        if m[k][k] == 0 and not _repair_pivot(m, k, end, exact, prev):
            return sig, 0
        pivot_row, e = m[k], end[k]
        _catch_up(pivot_row, k, e, exact[k], prev)
        p = pivot_row[k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in range(k + 1, e):
            a = pivot_row[i]
            if a:
                row, hi = m[i], max(end[i], e)
                _catch_up(row, i, end[i], exact[i], prev)
                row[i:hi] = [(x * p - a * y) // prev
                             for x, y in zip(row[i:hi], pivot_row[i:hi])]
                end[i], exact[i] = hi, p
        prev = p
    return sig, prev


def signature(form: IntMatrix) -> int:
    """Signature of a symmetric integer form, exactly."""
    return signature_and_determinant(form)[0]
