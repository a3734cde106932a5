"""The mu-invariant pipeline for 2-knots built from Seifert matrices.

A square integer matrix S with det(S - S^t) = +-1 is the Seifert matrix
of a 1-knot.  Two facts drive everything downstream:

* The symmetrized form Q = S + S^t is even (every diagonal entry is 2 *
  a self-linking) and presents the first homology of the double cover
  of the 3-sphere branched along the knot.  Since Q is congruent to
  S - S^t mod 2, its determinant is odd, so that homology is finite and
  has no 2-torsion -- the punctured branched cover carries a unique
  spin structure.
* That punctured cover is a Seifert hypersurface for the 2-twist spin
  of the knot, and the mu-invariant (Rokhlin invariant, a residue mod
  16) of the capped cover equals the signature of Q reduced mod 16.

The same signature recipe applies to any user-supplied even symmetric
form with odd determinant that bounds the relevant 3-manifold; that
route covers 2-knots such as the 5-twist-spun trefoil, whose natural
hypersurface is the punctured Poincare sphere bounded by the E8 form.

There is no general algorithm for the mu-invariant of an arbitrary
2-knot; these two algebraic routes are the ones this package computes,
as ``TwoKnotInvariants.from_seifert`` and ``from_even_form``.  Mu and the
cover torsion are read off that one record.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import add, index, sub

from .abelian import FiniteAbelianGroup, from_presentation
from .exactla import FormError, InputError, IntMatrix, _symmetric_fold, _Value, determinant


class SeifertValidationError(InputError):
    """The matrix is not the Seifert matrix of a knot."""


class SpinStructureError(InputError):
    """The bounded 3-manifold has more than one spin structure."""


class SeifertMatrix(_Value):
    """A knot Seifert matrix, det(S - S^t) = +-1: built directly by braid
    closures and the catalog, through :func:`validate_seifert` from user input."""

    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix) -> None:
        self._set(matrix=matrix)

    # Read by the benchmark tracer (perfbench/spans.py) until ROADMAP item 2.
    @property
    def size(self) -> int:
        return self.matrix.rows


class Mu(_Value):
    """A residue class mod 16, stored by its representative in 0..15."""

    value: int

    def __init__(self, value: int) -> None:
        self._set(value=index(value) % 16)

    def __add__(self, other: Mu) -> Mu:
        return Mu(self.value + other.value)

    def __str__(self) -> str:
        # The explicit suffix avoids the sign ambiguity of e.g. a
        # signature of -2 rendering as 14.
        return f"{self.value} (mod 16)"


def validate_seifert(matrix: IntMatrix) -> SeifertMatrix:
    """Check det(S - S^t) = +-1 and wrap the matrix.

    The empty matrix is the Seifert matrix of the unknot and passes with
    determinant 1.
    """
    if not matrix.is_square:
        raise SeifertValidationError(
            f"Seifert matrix must be square, got {matrix.rows}x{matrix.cols}")
    d = determinant(_with_transpose(matrix, sub))
    if d not in (1, -1):
        raise SeifertValidationError(
            f"not a knot Seifert matrix: det(S - S^t) = {d}, need +-1")
    return SeifertMatrix(matrix)


def intersection_form(seifert: SeifertMatrix) -> IntMatrix:
    """The even symmetric form S + S^t of a bounding 4-manifold."""
    return _with_transpose(seifert.matrix, add)


def _with_transpose(matrix: IntMatrix, op: Callable[[int, int], int]) -> IntMatrix:
    """S + S^t or S - S^t of a square S, row i against column i: no transposed copy."""
    rows = matrix.entries
    return IntMatrix(matrix.rows, matrix.cols,
                     tuple(tuple(map(op, row, col)) for row, col in zip(rows, zip(*rows))))


def mu_boundary_link_sum(components: Sequence[SeifertMatrix]) -> Mu:
    """Mu of a boundary 2-link with the given components: the mod-16 sum.

    The components bound disjoint Seifert hypersurfaces, so the capped
    hypersurface of the link is the disjoint union and its bounding form
    is the block-diagonal sum; signature additivity makes the mu of the
    block form equal the sum of component mu values.
    """
    return sum((TwoKnotInvariants.from_seifert(s).mu for s in components), Mu(0))


class TwoKnotInvariants(_Value):
    """The computable invariant record of a 2-knot.

    ``form`` is the even bounding form the invariants were read from
    (S + S^t for a 2-twist spin), with signature ``signature``,
    determinant ``form_determinant`` and ``form_minor``, the pass's
    D_{n-1}, all from one symmetric pass.  ``cover_torsion``, the torsion
    of the first homology of the chosen Seifert hypersurface, is derived
    from them each time it is read: Z_|det| when gcd(D_{n-1}, det) = 1,
    else by a Smith reduction.  A caller that needs only mu runs neither.
    """

    signature: int
    form_determinant: int
    form: IntMatrix
    form_minor: int

    def __init__(self, signature: int, form_determinant: int, form: IntMatrix,
                 form_minor: int = 0) -> None:
        self._set(signature=signature, form_determinant=form_determinant, form=form,
                  form_minor=form_minor)

    @property
    def mu(self) -> Mu:
        return Mu(self.signature)

    @property
    def cover_torsion(self) -> FiniteAbelianGroup:
        return from_presentation(self.form, self.form_determinant, self.form_minor)

    # Both builders are bound as staticmethods by the benchmark tracer
    # (perfbench/spans.py) until ROADMAP item 2.
    @staticmethod
    def from_seifert(seifert: SeifertMatrix) -> TwoKnotInvariants:
        return TwoKnotInvariants.from_even_form(intersection_form(seifert))

    @staticmethod
    def from_even_form(form: IntMatrix) -> TwoKnotInvariants:
        """Check and read a bounding form in one pass; the O(n) evenness
        check runs first, so an odd form is never eliminated.  Even and odd
        determinant make the signature mod 16 well defined."""
        for i, d in enumerate(form.diagonal()):
            if d % 2 != 0:
                raise FormError(f"form not even: diagonal entry {d} at index {i}")
        sig, det, minor = _symmetric_fold(form)  # checks square and symmetric
        if det % 2 == 0:
            raise SpinStructureError(
                "spin structure not unique: even form determinant; recipe inapplicable")
        return TwoKnotInvariants(sig, det, form, minor)

    @staticmethod
    def unknot() -> TwoKnotInvariants:
        return TwoKnotInvariants.from_seifert(SeifertMatrix(IntMatrix.empty()))
