"""Finite abelian groups in invariant-factor form.

A group is stored as its canonical chain of invariant factors
d1 | d2 | ... | dk with every di >= 2; the empty chain is the trivial
group.  Smith normal form hands us this chain directly, and every
operation here works on it with gcd, lcm and equality alone: no integer
is ever factored, so no cover order, however hard to factor, can stall
a verdict.  The chain is canonical: isomorphism is ``==``.

The doubling test -- is G isomorphic to H + H for some H? -- holds iff
the chain pairs up, d1 = d2, d3 = d4, ... (equivalently, every
elementary divisor p^k occurs with even multiplicity).  It is the
executable form of the torsion obstruction: the combined torsion of
Seifert-hypersurface homology of ribbon-move equivalent 2-links is
always such a double.  Direct sums join two chains and restore
divisibility by pairwise (gcd, lcm) replacement.
"""

from __future__ import annotations

from operator import index

from .exactla import InputError, IntMatrix, _Value, _invariant_chain, cokernel_invariants


class DoublingHypothesisError(InputError):
    """A doubling hypothesis required by a combination rule fails."""


class FiniteAbelianGroup(_Value):
    """Canonical invariant-factor presentation of a finite abelian group."""

    invariant_factors: tuple[int, ...]

    def __init__(self, invariant_factors: tuple[int, ...]) -> None:
        factors = tuple(map(index, invariant_factors))
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, {a} does not divide {b}")
        self._set(invariant_factors=factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " ⊕ ".join(f"Z{d}" for d in self.invariant_factors)


def from_presentation(matrix: IntMatrix, det: int | None = None,
                      minor: int = 0) -> FiniteAbelianGroup:
    """Torsion part of the abelian group presented by the matrix columns.

    For a square matrix with nonzero determinant this is the whole
    cokernel.  A presentation with free quotient still yields its
    torsion part; ``exactla.cokernel_invariants`` also gives the free rank.
    A caller that already has the nonzero determinant passes it as
    ``det``, so the reduction can work modulo it, and any multiple of the
    gcd of the (n-1)-minors as ``minor``.  Both are trusted, as
    :func:`~ribbonmu.exactla.cokernel_invariants` says: a proper divisor
    of the determinant gives a smaller group with no error.
    """
    _, torsion = cokernel_invariants(matrix, det, minor)
    return FiniteAbelianGroup(torsion)


def direct_sum(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Canonical invariant factors of g + h: the joined chain, normalised
    by pairwise (gcd, lcm) replacement."""
    return FiniteAbelianGroup(_invariant_chain(g.invariant_factors + h.invariant_factors))


def is_double(g: FiniteAbelianGroup) -> FiniteAbelianGroup | None:
    """Return h with g = h + h if one exists, else None.

    The chain of h + h is h1, h1, h2, h2, ..., and invariant factors
    are unique, so g is a double exactly when its chain pairs up: even
    length with d1 = d2, d3 = d4, ...  The half is then d2, d4, ...
    """
    d = g.invariant_factors
    if d[0::2] != d[1::2]:
        return None
    return FiniteAbelianGroup(d[1::2])


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
    if half is None:  # unreachable while direct_sum and is_double are right
        raise RuntimeError(
            f"parity argument failed: ({a}) + ({c}) is not of the form P + P")
    return half

