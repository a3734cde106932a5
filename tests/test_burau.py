"""The braid route's cover group against the Burau presentation at t = -1.

``support.burau_cover_presentation`` presents the homology of the double
branched cover of a braid closure with strands - 1 generators, however
long the word, and ``support.cokernel_oracle`` reads the group off
it.  So random words far above the small-oracle sizes get an answer the
package did not compute, on every route that takes a braid.
``support.burau_signature`` reads the closure's signature off the same
Burau matrices, letter by letter, and checks the braid route's
signature the same way.  At t = T, the companion matrix of
1 + t + ... + t^(k-1), the Burau matrix presents the k-fold cyclic
branched cover, and ``support.seifert_cover_presentation`` presents it
from a Seifert matrix instead."""

import json
import random
from math import prod
from pathlib import Path

import pytest

from ribbonmu import BraidWord, TwoKnotInvariants, seifert_matrix_from_braid
from ribbonmu.cli import resolve_knot

from support import (burau_cover_presentation, burau_signature, charpoly_signature,
                     cokernel_oracle, knot_word, matadd, rand_braid_knot, run_json,
                     scrambled_torus_word, seifert_cover_presentation, seifert_matrix_pairwise,
                     torus_determinant)

LONG_BRAID = Path(__file__).parent / "data" / "braid6_1201.json"


def test_oracle_against_the_seifert_form_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(11)
    strand_counts = set()
    for _ in range(300):
        strands = rng.randint(2, 6)
        word = knot_word(rng, strands, rng.randrange(strands - 1, 13, 2))
        s = seifert_matrix_pairwise(word)
        group = cokernel_oracle(matadd(s, s.transpose()))
        assert group[0] == 0  # a knot's cover is a rational homology sphere
        assert cokernel_oracle(burau_cover_presentation(strands, word.letters)) == group
        strand_counts.add(strands)
    assert strand_counts == {2, 3, 4, 5, 6}


def test_random_601_letter_word_on_every_braid_route(tmp_path):
    word = knot_word(random.Random(601), 6, 601)
    letters, mirror = word.letters, tuple(-x for x in word.letters)
    free, torsion = cokernel_oracle(burau_cover_presentation(6, letters))
    assert free == 0 and cokernel_oracle(burau_cover_presentation(6, mirror)) == (0, torsion)
    s = seifert_matrix_pairwise(word)
    specs = {"braid": {"braid": {"strands": 6, "letters": list(letters)}},
             "mirror": {"braid": {"strands": 6, "letters": list(mirror)}},
             "seifert": {"seifert_matrix": s.to_lists()}}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        record = run_json("invariants", str(path), "--json")
        assert record["h1_invariant_factors"] == [str(d) for d in torsion], name
        assert abs(int(record["form_determinant"])) == prod(torsion), name


def test_committed_1201_letter_word():
    spec = json.loads(LONG_BRAID.read_text())["braid"]
    inv = resolve_knot(str(LONG_BRAID)).invariants()
    torsion = inv.cover_torsion.invariant_factors
    assert cokernel_oracle(burau_cover_presentation(**spec)) == (0, torsion)
    assert abs(inv.form_determinant) == prod(torsion)


def test_scrambled_torus_words():
    # |det| alone cannot tell Z9 from Z3 + Z3; the oracle's group can
    rng = random.Random(13)
    for p, q in [(4, 9), (4, 27), (6, 25), (2, 45), (3, 101), (8, 15)]:
        strands, letters = scrambled_torus_word(rng, p, q, rng.randint(1, 3),
                                                rng.randint(100, 250))
        free, torsion = cokernel_oracle(burau_cover_presentation(strands, letters))
        assert (free, prod(torsion)) == (0, torus_determinant(p, q))
        word = BraidWord(strands, letters)
        inv = TwoKnotInvariants.from_seifert(seifert_matrix_from_braid(word))
        assert inv.cover_torsion.invariant_factors == torsion, (p, q)


def test_signature_oracle_against_charpoly_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(5)
    strand_counts = set()
    for _ in range(150):
        word = rand_braid_knot(rng, max_strands=6, max_len=10)
        s = seifert_matrix_pairwise(word)
        assert burau_signature(word.strands, word.letters) == charpoly_signature(
            matadd(s, s.transpose())), word
        strand_counts.add(word.strands)
    assert strand_counts == {2, 3, 4, 5, 6}
    assert burau_signature(2, (1, 1, 1)) == 2  # the trefoil's sign, as the package has it


def test_random_301_letter_word_signature_and_its_mirror(tmp_path):
    letters = knot_word(random.Random(301), 6, 301).letters
    signature = burau_signature(6, letters)
    assert signature != 0  # so the mirror's negation is a real check
    for name, word, expected in (("braid", letters, signature),
                                 ("mirror", tuple(-x for x in letters), -signature)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"braid": {"strands": 6, "letters": list(word)}}))
        record = run_json("invariants", str(path), "--json")
        assert record["signature"] == str(expected), name
        assert record["mu"] == str(expected % 16), name


def test_k_fold_cover_oracles_agree_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(3)
    for k in range(2, 7):
        for _ in range(50):
            word = rand_braid_knot(rng, max_strands=5)
            s = seifert_matrix_pairwise(word)
            assert cokernel_oracle(burau_cover_presentation(word.strands, word.letters, k)) == \
                cokernel_oracle(seifert_cover_presentation(s, k)), (word, k)


@pytest.mark.parametrize("strands, letters, groups", [
    # the trefoil's k = 5 cover is the Poincare sphere, its k = 6 cover has b1 = 2
    (2, (1, 1, 1), {2: (0, (3,)), 3: (0, (2, 2)), 4: (0, (3,)), 5: (0, ()),
                    6: (2, ()), 7: (0, ())}),
    (3, (1, -2, 1, -2), {3: (0, (4, 4)), 5: (0, (11, 11)), 7: (0, (29, 29))}),
], ids=["trefoil", "figure8"])
def test_k_fold_covers_of_the_catalog_knots(strands, letters, groups):
    s = seifert_matrix_pairwise(BraidWord(strands, letters))
    for k, group in groups.items():
        assert cokernel_oracle(burau_cover_presentation(strands, letters, k)) == group, k
        assert cokernel_oracle(seifert_cover_presentation(s, k)) == group, k
