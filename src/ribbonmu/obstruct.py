"""Executable obstructions against ribbon-move equivalence of 2-knots.

Two necessary conditions for 2-links to be ribbon-move equivalent are
implemented as a verdict engine on invariant records
(:class:`~ribbonmu.spinmu.TwoKnotInvariants`):

* mu test: ribbon-move equivalent 2-links have equal mu-invariants.
* torsion test: for ANY Seifert hypersurfaces of the two links, the
  torsion of the direct sum of their first homologies is a double
  G + G.  Comparing against the trivial 2-knot (whose hypersurface can
  be taken with trivial homology) this says the knot's own cover
  torsion must be a double.

Verdicts are one-sided: the engine reports an obstruction or reports
that it found none; it never claims two 2-knots ARE ribbon-move
equivalent.  The mu test fires first, so every verdict names exactly
one rule, and the cover groups (a Smith reduction each) are built only
when the two mus agree.
"""

from __future__ import annotations

import enum

from .abelian import FiniteAbelianGroup, direct_sum, is_double
from .exactla import _Value
from .spinmu import Mu, TwoKnotInvariants


class Conclusion(enum.Enum):
    OBSTRUCTED_BY_MU = "obstructed-by-mu"
    OBSTRUCTED_BY_TORSION = "obstructed-by-torsion"
    NO_OBSTRUCTION_FOUND = "no-obstruction-found"


_RULES = {
    Conclusion.OBSTRUCTED_BY_MU: "ribbon-move equivalent 2-links have equal mu-invariants",
    Conclusion.OBSTRUCTED_BY_TORSION: ("combined Seifert-hypersurface torsion of ribbon-move "
                                       "equivalent 2-links is a double G + G"),
    Conclusion.NO_OBSTRUCTION_FOUND: "necessary conditions all hold",
}


class Verdict(_Value):
    """Outcome of an obstruction test, with the witnesses that fired it.

    An obstructed verdict must carry the witness its rule reads:
    two different mu values, or combined torsion that is not a double.
    """

    conclusion: Conclusion
    mu_pair: tuple[Mu, Mu] | None
    torsion_witness: FiniteAbelianGroup | None

    def __init__(self, conclusion: Conclusion, mu_pair: tuple[Mu, Mu] | None = None,
                 torsion_witness: FiniteAbelianGroup | None = None) -> None:
        if conclusion is Conclusion.OBSTRUCTED_BY_MU and (
                mu_pair is None or mu_pair[0].value == mu_pair[1].value):
            raise ValueError(f"{conclusion.value} needs two different mu values, "
                             f"got {mu_pair}")
        if conclusion is Conclusion.OBSTRUCTED_BY_TORSION and (
                torsion_witness is None or is_double(torsion_witness) is not None):
            raise ValueError(f"{conclusion.value} needs torsion that is not a double, "
                             f"got {torsion_witness}")
        self._set(conclusion=conclusion, mu_pair=mu_pair, torsion_witness=torsion_witness)

    @property
    def rule(self) -> str:
        """The necessary condition the conclusion rests on."""
        return _RULES[self.conclusion]

    def explanation(self) -> str:
        if self.conclusion is Conclusion.OBSTRUCTED_BY_MU:
            a, b = self.mu_pair
            return (f"mu-invariants differ ({a} vs {b}); {self.rule}")
        if self.conclusion is Conclusion.OBSTRUCTED_BY_TORSION:
            return (f"combined cover torsion {self.torsion_witness} is not "
                    f"a double; {self.rule}")
        return ("no obstruction found: mu-invariants agree and the combined "
                "torsion is a double (this is NOT a proof of equivalence)")


def obstruct_ribbon_equivalent(a: TwoKnotInvariants, b: TwoKnotInvariants) -> Verdict:
    """Test whether two 2-knots can be ribbon-move equivalent."""
    if a.mu.value != b.mu.value:
        return Verdict(Conclusion.OBSTRUCTED_BY_MU, mu_pair=(a.mu, b.mu))
    combined = direct_sum(a.cover_torsion, b.cover_torsion)
    if is_double(combined) is None:
        return Verdict(Conclusion.OBSTRUCTED_BY_TORSION, torsion_witness=combined)
    return Verdict(Conclusion.NO_OBSTRUCTION_FOUND)


def obstruct_ribbon_trivial(knot: TwoKnotInvariants) -> Verdict:
    """Test whether a 2-knot can be ribbon-move equivalent to the trivial one."""
    return obstruct_ribbon_equivalent(knot, TwoKnotInvariants.unknot())
