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
* :func:`block_diag` -- block-diagonal sum of square matrices.

Matrices are immutable values (safe to share across threads); the
algorithms copy entries into plain lists of ints internally.  Empty
matrices (0x0, n x 0, 0 x n) are legal everywhere: the empty matrix is
the Seifert matrix of the unknot, so the degenerate cases are load
bearing rather than corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


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
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition needs equal shapes")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return self + (-other)

    def __neg__(self) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(-a for a in row) for row in self.entries))

    def scale(self, k: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(k * a for a in row) for row in self.entries))

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
        return [[str(a) for a in row] for row in self.entries]

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
        m[dst] = [a - q * b for a, b in zip(m[dst], m[src])]

    n = min(rows, cols)
    for k in range(n):
        pivot = _min_abs_pivot(m, k, rows, cols)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            m[pi], m[k] = m[k], m[pi]
            for r in m:
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
            for j in range(cols):
                if j != k and m[k][j] != 0:
                    q = m[k][j] // p
                    for r in m:  # col j -= q * col k
                        r[j] -= q * r[k]
                    if m[k][j] != 0:
                        dirty = True
            if dirty:
                pivot = _min_abs_pivot(m, k, rows, cols)
                continue
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
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        p, tail = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            # Bareiss guarantees exact division by the previous pivot; a
            # row with a zero in column k is only rescaled by p / prev.
            row, a = m[i], m[i][k]
            if a:
                row[k + 1:] = [(x * p - a * y) // prev for x, y in zip(row[k + 1:], tail)]
            elif p != prev:
                row[k + 1:] = [x * p // prev for x in row[k + 1:]]
        prev = p
    return sign * m[n - 1][n - 1]


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


def _repair_pivot(m: list[list[int]], k: int) -> bool:
    """Make the zero pivot m[k][k] nonzero by a congruence of the
    trailing variables k, k+1, ...; False when the trailing block is zero.

    A later nonzero diagonal entry d is swapped into place.  When the
    whole trailing diagonal vanishes, the shear x_d -> x_d + x_j on a
    coupled pair (d, j) first makes m[d][d] = 2 * m[d][j] nonzero.
    """
    n = len(m)
    for i in range(k, n):  # mirror the upper triangle into the lower one
        for j in range(i + 1, n):
            m[j][i] = m[i][j]
    d = next((d for d in range(k + 1, n) if m[d][d] != 0), None)
    if d is None:
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                     if m[i][j] != 0), None)
        if pair is None:
            return False
        d, j = pair
        for r in range(k, n):  # column d += column j, then row d += row j
            m[r][d] += m[r][j]
        m[d][k:] = [a + b for a, b in zip(m[d][k:], m[j][k:])]
    m[k], m[d] = m[d], m[k]  # exchange variables d and k
    for r in range(k, n):
        m[r][k], m[r][d] = m[r][d], m[r][k]
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
    """
    if not form.is_square:
        raise DimensionError(
            f"signature needs a square matrix, got {form.rows}x{form.cols}")
    if not form.is_symmetric:
        raise FormError("signature needs a symmetric matrix")
    n = form.rows
    m = form.to_lists()
    sig, prev = 0, 1
    for k in range(n):
        if m[k][k] == 0 and not _repair_pivot(m, k):
            return sig, 0
        p, pivot_row = m[k][k], m[k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in range(k + 1, n):  # the same row update as determinant's
            row, a = m[i], pivot_row[i]
            if a:
                row[i:] = [(x * p - a * y) // prev for x, y in zip(row[i:], pivot_row[i:])]
            elif p != prev:
                row[i:] = [x * p // prev for x in row[i:]]
        prev = p
    return sig, prev


def signature(form: IntMatrix) -> int:
    """Signature of a symmetric integer form, exactly."""
    return signature_and_determinant(form)[0]


def block_diag(first: IntMatrix, second: IntMatrix) -> IntMatrix:
    """Block-diagonal sum of two square matrices; dimensions add."""
    if not first.is_square or not second.is_square:
        raise DimensionError("block_diag needs square blocks")
    a, b = first.rows, second.rows
    out = [[0] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a):
            out[i][j] = first.entries[i][j]
    for i in range(b):
        for j in range(b):
            out[a + i][a + j] = second.entries[i][j]
    return IntMatrix.from_rows(out, cols=a + b)


def block_diag_all(blocks: Iterable[IntMatrix]) -> IntMatrix:
    """Block-diagonal sum of any number of square matrices."""
    out = IntMatrix.empty()
    for blk in blocks:
        out = block_diag(out, blk)
    return out
