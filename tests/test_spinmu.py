import random
from math import gcd, prod

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
    exactla,
    intersection_form,
    mu_boundary_link_sum,
    seifert_matrix_from_braid,
    signature_and_determinant,
    spinmu,
    validate_seifert,
)

from support import (block_diag, cokernel_oracle, identity, knot_word, matmul, rand_seifert,
                     rand_unimodular)

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


class TestBranchedDoubleCover:
    def test_order_equals_form_determinant(self):
        rng = random.Random(32)
        for _ in range(80):
            s = rand_seifert(rng)
            order = prod(TwoKnotInvariants.from_seifert(s).cover_torsion.invariant_factors)
            assert order == abs(determinant(intersection_form(s)))


class TestMuTwoTwistSpin:
    def test_congruence_invariance(self):
        rng = random.Random(33)
        for _ in range(60):
            s = rand_seifert(rng)
            p = rand_unimodular(rng, s.size)
            transformed = validate_seifert(matmul(p.transpose(), s.matrix, p))
            assert TwoKnotInvariants.from_seifert(transformed).mu.value == \
                TwoKnotInvariants.from_seifert(s).mu.value


class TestMuFromEvenForm:
    def test_hyperbolic_form(self):
        assert determinant(HYPERBOLIC) == -1
        assert TwoKnotInvariants.from_even_form(HYPERBOLIC).mu.value == 0

    def test_odd_form_rejected_before_elimination(self, monkeypatch):
        def eliminate(form):
            raise AssertionError("an odd form reached the elimination")
        monkeypatch.setattr(spinmu, "_symmetric_fold", eliminate)
        for odd in ([[1, 0], [0, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 3]]):
            with pytest.raises(FormError, match="form not even"):
                TwoKnotInvariants.from_even_form(IntMatrix.from_rows(odd))

    def test_even_determinant_rejected(self):
        with pytest.raises(SpinStructureError, match="spin structure"):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 0], [0, 2]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(FormError):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 1], [0, 2]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            TwoKnotInvariants.from_even_form(IntMatrix.from_rows([[2, 0], [0, 2], [0, 0]]))


def even_form(rng: random.Random) -> IntMatrix:
    """P^t B P for a random unimodular P and a block sum B of one to three
    even 2 x 2 blocks of odd determinant, hyperbolic planes among them, each
    repeated with probability 0.3, so cyclic and non-cyclic groups both occur."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        b = 2 * rng.randint(0, 3) + 1
        blocks.append(HYPERBOLIC if rng.random() < 0.2 else IntMatrix.from_rows(
            [[2 * rng.randint(-3, 3), b], [b, 2 * rng.randint(-3, 3)]]))
        if rng.random() < 0.3:
            blocks.append(blocks[-1])
    base = block_diag(*blocks)
    p = rand_unimodular(rng, base.rows)
    return matmul(p.transpose(), base, p)


class TestCoverGroupCertificate:
    """gcd(D_{n-1}, det) = 1 certifies the cover group cyclic, Z_|det|:
    D_{n-1} is a multiple of the product of all invariant factors but the
    last, so they are all 1, and no Smith reduction runs."""

    def test_against_cokernel_oracle(self, monkeypatch):
        rng = random.Random(46)
        forms = [IntMatrix.empty(), E8]
        # the pass repairs D_1 = 0 by a shear: Z9 certified, and Z3 + Z3 not
        shears = [IntMatrix.from_rows(rows) for rows in ([[0, 3], [3, 2]], [[0, 3], [3, 0]])]
        forms += shears
        words = [knot_word(rng, 6, rng.randrange(21, 152, 2)) for _ in range(60)]
        forms += [even_form(rng) for _ in range(240)]
        # 301 letters, the benchmark's 296-row forms: Random(11)'s word is
        # certified, and Random(12)'s falls back to the Smith reduction
        words += [knot_word(random.Random(seed), 6, 301) for seed in (11, 12)]
        forms += [intersection_form(seifert_matrix_from_braid(word)) for word in words]

        def refuse(*args):
            raise AssertionError("a certified group ran the Smith reduction")

        certified = []
        for form in forms:
            inv = TwoKnotInvariants.from_even_form(form)
            sure = gcd(inv.form_minor, inv.form_determinant) == 1
            with monkeypatch.context() as patch:
                if sure:
                    patch.setattr(exactla, "_smith_diagonal", refuse)
                group = inv.cover_torsion
            assert group == FiniteAbelianGroup(cokernel_oracle(form)[1])
            certified.append(sure)
        assert 0 < sum(certified) < len(forms)
        assert certified[2:4] == certified[-2:] == [True, False]
        assert forms[-1].rows == 296
        assert all(TwoKnotInvariants.from_even_form(f).form_minor for f in shears)


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
