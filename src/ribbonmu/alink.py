"""Alinking numbers of (sphere, torus)-links in the 4-sphere.

The input is the map on first cohomology induced by inclusion of the
torus component into the sphere complement: an integer matrix with two
rows (the torus has H^1 = Z^2) and one column per generator of the
complement's H^1.  The alinking number classifies the cokernel of that
map:

    Z + Z          -> 0
    Z              -> 1
    Z + Z/n, n >= 2 -> n

Cokernels outside those three shapes (finite, or with two torsion
summands) are not assigned a value; they raise rather than being
silently normalized.  Its mod-2 reduction is the invariant that changes
under a single ribbon-move resolution, in the finite-type sense.
"""

from __future__ import annotations

from .exactla import DimensionError, InputError, IntMatrix, _Value, cokernel_invariants
# Bound by the benchmark tracer (perfbench/spans.py) until ROADMAP item 2.
from .exactla import smith_normal_form  # noqa: F401


class ClassificationError(InputError):
    """Cokernel shape outside the three classified cases."""


class InducedMap(_Value):
    """Map into H^1 of the torus: a 2 x c integer matrix."""

    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix) -> None:
        if matrix.rows != 2:
            raise DimensionError(
                f"induced map must have exactly 2 rows, got {matrix.rows}")
        self._set(matrix=matrix)

    @staticmethod
    def from_columns(columns: list[list[int]]) -> InducedMap:
        rows = [[col[0] for col in columns], [col[1] for col in columns]]
        return InducedMap(IntMatrix.from_rows(rows, cols=len(columns)))


def alinking(iota: InducedMap) -> int:
    """The alinking number read from coker(iota) = Z^2 / Im(iota)."""
    free, torsion = cokernel_invariants(iota.matrix)
    if free == 2:
        return 0
    if free == 1:
        # Cokernel Z + Z/d: value d for d >= 2, and 1 when the torsion
        # summand is trivial.
        return torsion[0] if torsion else 1
    d1, d2 = (1, 1, *torsion)[-2:]
    raise ClassificationError(
        f"cokernel Z/{d1} + Z/{d2} has free rank 0; alinking is only "
        "defined on cokernels Z+Z, Z, and Z+Z/n")


def mod2_alinking(iota: InducedMap) -> int:
    """The alinking number reduced mod 2."""
    return alinking(iota) % 2
