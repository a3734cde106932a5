import json
import random
from math import prod
from pathlib import Path

import pytest

from ribbonmu import (
    BraidWord,
    CatalogError,
    IntMatrix,
    NotAKnotError,
    TwoKnotInvariants,
    catalog,
    determinant,
    intersection_form,
    seifert_matrix_from_braid,
    signature_and_determinant,
    validate_seifert,
)

from support import (alexander_at, det_fraction, knot_word, matsub, rand_braid_knot,
                     reduce_far_commutation, seifert_matrix_pairwise, time_limit,
                     torus_determinant, torus_letters, torus_signature)

TREFOIL_BRAID = BraidWord(2, (1, 1, 1))
FIGURE8_BRAID = BraidWord(3, (1, -2, 1, -2))
LONG_BRAID = Path(__file__).parent / "data" / "braid6_1201.json"
CATALOG_NAMES = ("figure8", "poincare", "trefoil", "unknot")


def congruence_invariants(seifert):
    q = intersection_form(seifert)
    return (abs(determinant(q)), abs(signature_and_determinant(q)[0]),
            TwoKnotInvariants.from_seifert(seifert).cover_torsion.invariant_factors)


class TestBraidWord:
    def test_letter_range_validation(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_knot_closure_detection(self):
        assert TREFOIL_BRAID.closure_components() == 1
        assert FIGURE8_BRAID.closure_components() == 1
        assert BraidWord(2, ()).closure_components() == 2
        assert BraidWord(2, (1, 1)).closure_components() == 2  # Hopf link

    def test_components_against_dense_permutation(self):
        rng = random.Random(47)
        for _ in range(500):
            strands = rng.randint(1, 8)
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                            for _ in range(rng.randint(0, 10) if strands > 1 else 0))
            at = list(range(strands))
            for letter in letters:
                a = abs(letter) - 1
                at[a], at[a + 1] = at[a + 1], at[a]
            cycles, seen = 0, set()
            for start in range(strands):
                if start not in seen:
                    cycles += 1
                    while start not in seen:
                        seen.add(start)
                        start = at[start]
            assert BraidWord(strands, letters).closure_components() == cycles

    def test_huge_strand_count(self):
        with time_limit(1.0):
            word = BraidWord(10 ** 15, (1, -2, 1))  # swaps strands 0 and 2
            assert word.closure_components() == 10 ** 15 - 1
            assert word.closure_components() != 1


def long_six_strand_word(length: int) -> BraidWord:
    """Knot word on 6 strands: the stored 1201-letter word, or a seeded one."""
    if length == 1201:
        spec = json.loads(LONG_BRAID.read_text())["braid"]
        return BraidWord(spec["strands"], tuple(spec["letters"]))
    return knot_word(random.Random(length), 6, length)


class TestSeifertMatrixFromBraid:
    def test_torus_3_5_braid_and_poincare_agree(self):
        # both bound the Poincare homology sphere: mu 8 and a trivial cover group
        braid = TwoKnotInvariants.from_seifert(
            seifert_matrix_from_braid(BraidWord(3, torus_letters(3, 5))))
        for inv in (braid, catalog("poincare").invariants()):
            assert inv.mu.value == 8
            assert inv.cover_torsion.is_trivial

    def test_low_gap_destabilization_shifts_letters(self):
        # one sigma_1 next to a sigma_2 cube: stabilized trefoil
        s = seifert_matrix_from_braid(BraidWord(3, (2, 2, 2, 1)))
        assert congruence_invariants(s) == \
            congruence_invariants(catalog("trefoil").seifert)
        assert TwoKnotInvariants.from_seifert(s).mu.value == 2

    def test_multi_component_closure_rejected(self):
        with pytest.raises(NotAKnotError, match="components"):
            seifert_matrix_from_braid(BraidWord(2, ()))
        with pytest.raises(NotAKnotError):
            seifert_matrix_from_braid(BraidWord(3, (1, 1, 2, 2)))

    def test_every_braid_matrix_is_valid(self):
        # The build does not check det(S - S^t) = +-1 (it holds by
        # construction), so this test does, with the Fraction oracle.
        rng = random.Random(51)
        for _ in range(120):
            s = seifert_matrix_from_braid(rand_braid_knot(rng))
            assert abs(det_fraction(matsub(s.matrix, s.matrix.transpose()))) == 1
            assert alexander_at(s, 1) in (1, -1)

    @pytest.mark.parametrize("length", [151, 301, 1201])
    def test_long_braid_matrix_is_valid(self, length):
        s = seifert_matrix_from_braid(long_six_strand_word(length)).matrix
        assert s.rows == length - 5
        assert determinant(matsub(s, s.transpose())) in (1, -1)

    def test_genus_bound_on_reduced_words(self):
        # A knot word uses each of its strands - 1 generators, and every
        # occurrence after a generator's first closes one loop.
        rng = random.Random(52)
        words = [rand_braid_knot(rng) for _ in range(200)]
        # words that destabilize to the unknot, one letter at a time
        words += [BraidWord(2, (1,)), BraidWord(4, (1, 2, 3))]
        for word in words:
            s = seifert_matrix_from_braid(word)
            assert s.size == len(word.letters) - word.strands + 1


class TestAgainstPairwiseOracle:
    """The one-sweep build gives the matrix of the all-pairs build."""

    def test_random_words(self):
        rng = random.Random(56)
        for _ in range(300):
            word = rand_braid_knot(rng, max_strands=6, max_len=30)
            assert seifert_matrix_from_braid(word).matrix == \
                seifert_matrix_pairwise(word)

    @pytest.mark.parametrize("length", [151, 301, 601, 1201])
    def test_long_six_strand_words(self, length):
        word = long_six_strand_word(length)
        assert seifert_matrix_from_braid(word).matrix == seifert_matrix_pairwise(word)


class TestTorusKnots:
    """T(p, q) of 4-1200 rows against answers in closed form."""

    TORUS = ((2, 5), (3, 101), (2, 401), (5, 151), (6, 161), (4, 301), (7, 201))

    @pytest.mark.parametrize("p, q", TORUS)
    def test_closed_form_invariants(self, p, q):
        inv = TwoKnotInvariants.from_seifert(
            seifert_matrix_from_braid(BraidWord(p, torus_letters(p, q))))
        assert inv.form.rows == (p - 1) * (q - 1)
        assert inv.signature == torus_signature(p, q)
        assert abs(inv.form_determinant) == torus_determinant(p, q)
        assert prod(inv.cover_torsion.invariant_factors) == torus_determinant(p, q)

    @pytest.mark.parametrize("p, q", TORUS)
    def test_mirror_negates_signature(self, p, q):
        mirror = BraidWord(p, tuple(-x for x in torus_letters(p, q)))
        inv = TwoKnotInvariants.from_seifert(seifert_matrix_from_braid(mirror))
        assert inv.signature == -torus_signature(p, q)


class TestMarkovStability:
    CATALOG_BRAIDS = (TREFOIL_BRAID, FIGURE8_BRAID)

    def test_conjugation_invariance(self):
        for word in self.CATALOG_BRAIDS:
            base = congruence_invariants(seifert_matrix_from_braid(word))
            mu = TwoKnotInvariants.from_seifert(seifert_matrix_from_braid(word)).mu.value
            for r in range(1, len(word.letters)):
                rotated = BraidWord(
                    word.strands, word.letters[r:] + word.letters[:r])
                s = seifert_matrix_from_braid(rotated)
                assert congruence_invariants(s) == base
                assert TwoKnotInvariants.from_seifert(s).mu.value == mu

    def test_markov_moves_on_random_words(self):
        rng = random.Random(53)
        for _ in range(40):
            word = rand_braid_knot(rng, max_strands=4, max_len=9)
            s = seifert_matrix_from_braid(word)
            base = congruence_invariants(s)
            signed_sigma = signature_and_determinant(intersection_form(s))[0]
            r = rng.randrange(len(word.letters))
            rotated = BraidWord(word.strands,
                                word.letters[r:] + word.letters[:r])
            sr = seifert_matrix_from_braid(rotated)
            assert congruence_invariants(sr) == base
            assert signature_and_determinant(intersection_form(sr))[0] == signed_sigma

    def test_stabilization_leaves_the_matrix_unchanged(self):
        # A stabilizing letter is a generator used once: it closes no loop
        # and starts none, so S is the same matrix, not just congruent.
        rng = random.Random(57)
        words = [rand_braid_knot(rng, max_strands=7, max_len=25) for _ in range(150)]
        words += [knot_word(rng, 6, 151) for _ in range(4)]
        kinds = set()
        for word in words:
            s = seifert_matrix_from_braid(word)
            for _ in range(rng.randint(1, 3)):
                sign, kind = rng.choice((1, -1)), rng.choice(("top", "bottom"))
                kinds.add(kind)
                if kind == "top":  # sigma_n on a new last strand
                    letters = word.letters + (sign * word.strands,)
                else:  # sigma_1 anywhere, on a new first strand
                    shifted = tuple(x + (1 if x > 0 else -1) for x in word.letters)
                    k = rng.randint(0, len(shifted))
                    letters = shifted[:k] + (sign,) + shifted[k:]
                word = BraidWord(word.strands + 1, letters)
                assert seifert_matrix_from_braid(word) == s
        assert kinds == {"top", "bottom"}
        for word in self.CATALOG_BRAIDS:
            s = seifert_matrix_from_braid(word)
            for sign in (1, -1):
                top = BraidWord(word.strands + 1, word.letters + (sign * word.strands,))
                assert seifert_matrix_from_braid(top) == s


class TestFarCommutation:
    """A word and its far-commutation reduction close to the same knot,
    so the forms S + S^t of the two have the same signature and cover
    group, and, both nondegenerate, determinants whose signs differ by
    one per lost pair of rows.  A uniform error cancels here, and so
    does a sign that follows the parity of the size, which the reduction
    keeps; an error that depends on more of the size does not, a wrong
    last pivot for one."""

    @staticmethod
    def check(strands, letters):
        reduced = reduce_far_commutation(letters)
        given, short = (TwoKnotInvariants.from_seifert(
            seifert_matrix_from_braid(BraidWord(strands, word))) for word in (letters, reduced))
        assert short.signature == given.signature
        assert short.cover_torsion == given.cover_torsion
        lost = given.form.rows - short.form.rows
        assert given.form_determinant == (-1) ** (lost // 2) * short.form_determinant
        return lost

    def test_random_words(self):
        rng = random.Random(11)
        words = [rand_braid_knot(rng) for _ in range(300)]
        shrunk = [w for w in words if len(reduce_far_commutation(w.letters)) < len(w.letters)]
        assert len(shrunk) > 150
        for word in shrunk:
            self.check(word.strands, word.letters)

    def test_committed_1201_letter_word(self):
        word = long_six_strand_word(1201)
        assert self.check(word.strands, word.letters) == 1196 - 706


class TestAlexander:
    def test_trefoil_at_minus_one(self):
        s = catalog("trefoil").seifert
        assert alexander_at(s, -1) in (3, -3)
        assert abs(alexander_at(s, -1)) == abs(determinant(intersection_form(s)))

    def test_figure8_at_minus_one(self):
        s = catalog("figure8").seifert
        assert alexander_at(s, -1) in (5, -5)

    def test_matches_form_determinant_at_minus_one(self):
        rng = random.Random(55)
        for _ in range(50):
            s = seifert_matrix_from_braid(rand_braid_knot(rng))
            assert abs(alexander_at(s, -1)) == \
                abs(determinant(intersection_form(s)))


class TestCatalog:
    VERBATIM = {"trefoil": [[1, 1], [0, 1]], "figure8": [[1, 1], [0, -1]], "unknot": []}

    @pytest.mark.parametrize("name", VERBATIM)
    def test_seifert_matrix_verbatim(self, name):
        assert catalog(name).seifert.matrix == IntMatrix.from_rows(self.VERBATIM[name])

    def test_every_seifert_matrix_is_valid(self):
        # the catalog builds its matrices without validate_seifert
        entries = [catalog(name) for name in CATALOG_NAMES]
        matrices = [e.seifert for e in entries if e.seifert is not None]
        assert len(matrices) == 3
        for seifert in matrices:
            assert validate_seifert(seifert.matrix) == seifert

    def test_poincare_carries_even_form(self):
        entry = catalog("poincare")
        assert entry.seifert is None
        assert entry.even_form is not None
        assert entry.even_form.rows == 8

    def test_unknown_name_lists_entries(self):
        with pytest.raises(CatalogError) as err:
            catalog("borromean")
        assert str(err.value).endswith("available: " + ", ".join(CATALOG_NAMES))
