import random
from math import prod

import pytest

from ribbonmu import (
    E8,
    DimensionError,
    FiniteAbelianGroup,
    FormError,
    IntMatrix,
    Mu,
    SeifertValidationError,
    SpinStructureError,
    TwoKnotInvariants,
    determinant,
    intersection_form,
    mu_boundary_link_sum,
    signature_and_determinant,
    spinmu,
    validate_seifert,
)

from support import (block_diag, identity, matmul, rand_seifert, rand_unimodular,
                     sturm_signature)

TREFOIL = IntMatrix.from_rows([[1, 1], [0, 1]])
FIGURE8 = IntMatrix.from_rows([[1, 1], [0, -1]])
HYPERBOLIC = IntMatrix.from_rows([[0, 1], [1, 0]])


class TestMu:
    def test_normalizes_mod_16(self):
        assert Mu(-2).value == 14
        assert Mu(18).value == 2

    def test_addition(self):
        assert (Mu(10) + Mu(10)).value == 4

    def test_rendering(self):
        assert str(Mu(2)) == "2 (mod 16)"


class TestValidateSeifert:
    def test_trefoil_matrix(self):
        assert validate_seifert(TREFOIL).size == 2

    def test_empty_unknot(self):
        assert validate_seifert(IntMatrix.empty()).size == 0

    def test_symmetric_matrix_rejected(self):
        with pytest.raises(SeifertValidationError, match="det"):
            validate_seifert(identity(2))

    def test_non_square_rejected(self):
        with pytest.raises(SeifertValidationError):
            validate_seifert(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


class TestIntersectionForm:
    def test_trefoil_displayed_form(self):
        s = validate_seifert(TREFOIL)
        assert intersection_form(s) == IntMatrix.from_rows([[2, 1], [1, 2]])

    def test_figure8_displayed_form(self):
        s = validate_seifert(FIGURE8)
        assert intersection_form(s) == IntMatrix.from_rows([[2, 1], [1, -2]])

    def test_empty(self):
        assert intersection_form(validate_seifert(IntMatrix.empty())) == IntMatrix.empty()

    def test_diagonal_always_even(self):
        rng = random.Random(31)
        for _ in range(100):
            q = intersection_form(rand_seifert(rng))
            assert all(q.entries[i][i] % 2 == 0 for i in range(q.rows))


class TestBranchedDoubleCover:
    def test_trefoil_homology(self):
        inv = TwoKnotInvariants.from_seifert(validate_seifert(TREFOIL))
        assert inv.cover_torsion == FiniteAbelianGroup((3,))

    def test_figure8_homology(self):
        inv = TwoKnotInvariants.from_seifert(validate_seifert(FIGURE8))
        assert inv.cover_torsion == FiniteAbelianGroup((5,))

    def test_unknot_homology(self):
        assert TwoKnotInvariants.from_seifert(
            validate_seifert(IntMatrix.empty())).cover_torsion.is_trivial

    def test_order_equals_form_determinant(self):
        rng = random.Random(32)
        for _ in range(80):
            s = rand_seifert(rng)
            order = prod(TwoKnotInvariants.from_seifert(s).cover_torsion.invariant_factors)
            assert order == abs(determinant(intersection_form(s)))


class TestMuTwoTwistSpin:
    def test_trefoil(self):
        assert TwoKnotInvariants.from_seifert(validate_seifert(TREFOIL)).mu.value == 2

    def test_figure8(self):
        assert TwoKnotInvariants.from_seifert(validate_seifert(FIGURE8)).mu.value == 0

    def test_unknot(self):
        inv = TwoKnotInvariants.from_seifert(validate_seifert(IntMatrix.empty()))
        assert inv.mu.value == 0

    def test_congruence_invariance(self):
        rng = random.Random(33)
        for _ in range(60):
            s = rand_seifert(rng)
            p = rand_unimodular(rng, s.size)
            transformed = validate_seifert(matmul(p.transpose(), s.matrix, p))
            assert TwoKnotInvariants.from_seifert(transformed).mu.value == \
                TwoKnotInvariants.from_seifert(s).mu.value


class TestMuFromEvenForm:
    def test_e8_reproduces_five_twist_spun_trefoil(self):
        assert sturm_signature(E8) == 8
        assert TwoKnotInvariants.from_even_form(E8).mu.value == 8

    def test_trefoil_form(self):
        form = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert TwoKnotInvariants.from_even_form(form).mu.value == 2

    def test_hyperbolic_form(self):
        assert determinant(HYPERBOLIC) == -1
        assert TwoKnotInvariants.from_even_form(HYPERBOLIC).mu.value == 0

    def test_odd_diagonal_rejected(self):
        with pytest.raises(FormError, match="even"):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[1, 0], [0, 2]]))

    def test_odd_form_rejected_before_elimination(self, monkeypatch):
        def eliminate(form):
            raise AssertionError("an odd form reached the elimination")
        monkeypatch.setattr(spinmu, "signature_and_determinant", eliminate)
        odd = IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 3]])
        with pytest.raises(FormError, match="form not even"):
            TwoKnotInvariants.from_even_form(odd)

    def test_even_determinant_rejected(self):
        with pytest.raises(SpinStructureError, match="spin structure"):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 0], [0, 2]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(FormError):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 1], [0, 2]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 0], [0, 2], [0, 0]]))


class TestParityTheorem:
    def test_form_determinant_always_odd(self):
        rng = random.Random(34)
        for _ in range(150):
            s = rand_seifert(rng)
            assert determinant(intersection_form(s)) % 2 == 1


class TestStabilizationInvariance:
    def test_hyperbolic_stabilization_preserves_signature_and_det(self):
        rng = random.Random(35)
        for _ in range(60):
            s = rand_seifert(rng)
            q = intersection_form(s)
            stabilized = block_diag(q, HYPERBOLIC)
            assert (signature_and_determinant(stabilized)[0]
                    == signature_and_determinant(q)[0])
            assert abs(determinant(stabilized)) == abs(determinant(q))
            assert TwoKnotInvariants.from_even_form(stabilized).mu.value == \
                TwoKnotInvariants.from_even_form(q).mu.value


class TestBoundaryLinkSum:
    def test_two_trefoils(self):
        tref = validate_seifert(TREFOIL)
        assert mu_boundary_link_sum([tref, tref]).value == 4

    def test_single_component(self):
        fig8 = validate_seifert(FIGURE8)
        assert mu_boundary_link_sum([fig8]).value == \
            TwoKnotInvariants.from_seifert(fig8).mu.value

    def test_empty_link(self):
        assert mu_boundary_link_sum([]).value == 0

    def test_additivity_mod_16(self):
        rng = random.Random(36)
        for _ in range(60):
            a, b = rand_seifert(rng), rand_seifert(rng)
            q = block_diag(intersection_form(a), intersection_form(b))
            expected = (TwoKnotInvariants.from_seifert(a).mu.value
                        + TwoKnotInvariants.from_seifert(b).mu.value) % 16
            assert TwoKnotInvariants.from_even_form(q).mu.value == expected
            assert mu_boundary_link_sum([a, b]).value == expected
