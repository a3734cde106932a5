"""Exact arithmetic toolkit for ribbon-move obstructions of 2-knots.

The package computes, over arbitrary-precision integers:

* the mu-invariant (mod 16) of 2-twist-spun 2-knots and of 2-knots
  presented by an even bounding form, and the cover torsion (for a
  2-twist spin, the first homology of the branched double cover), both
  read off one ``TwoKnotInvariants`` record,
* the torsion doubling obstruction on Seifert-hypersurface homology,
* alinking numbers of (sphere, torus)-links,

together with the supporting exact kernel: Smith normal forms,
determinants, cokernels (``cokernel_invariants``: free rank and torsion)
and the signature and determinant of a symmetric form, from one pass
(``signature_and_determinant``).  The JSON wire format is the CLI's.
"""

from .abelian import (
    DoublingHypothesisError,
    FiniteAbelianGroup,
    combine_doubles,
    direct_sum,
    from_presentation,
    is_double,
)
from .alink import ClassificationError, InducedMap, alinking, mod2_alinking
from .braid import (
    E8,
    BraidWord,
    CatalogError,
    NotAKnotError,
    catalog,
    seifert_matrix_from_braid,
)
from .exactla import (
    DimensionError,
    FormError,
    InputError,
    IntMatrix,
    SnfResult,
    cokernel_invariants,
    determinant,
    signature_and_determinant,
    smith_normal_form,
)
from .obstruct import (
    Conclusion,
    Verdict,
    obstruct_ribbon_equivalent,
    obstruct_ribbon_trivial,
)
from .spinmu import (
    Mu,
    SeifertMatrix,
    SeifertValidationError,
    SpinStructureError,
    TwoKnotInvariants,
    intersection_form,
    mu_boundary_link_sum,
    validate_seifert,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CatalogError",
    "ClassificationError",
    "Conclusion",
    "DimensionError",
    "DoublingHypothesisError",
    "E8",
    "FiniteAbelianGroup",
    "FormError",
    "InducedMap",
    "InputError",
    "IntMatrix",
    "Mu",
    "NotAKnotError",
    "SeifertMatrix",
    "SeifertValidationError",
    "SnfResult",
    "SpinStructureError",
    "TwoKnotInvariants",
    "Verdict",
    "alinking",
    "catalog",
    "cokernel_invariants",
    "combine_doubles",
    "determinant",
    "direct_sum",
    "from_presentation",
    "intersection_form",
    "is_double",
    "mod2_alinking",
    "mu_boundary_link_sum",
    "obstruct_ribbon_equivalent",
    "obstruct_ribbon_trivial",
    "seifert_matrix_from_braid",
    "signature_and_determinant",
    "smith_normal_form",
    "validate_seifert",
]
