"""The braid route's cover group against the Burau presentation at t = -1.

``support.burau_cover_presentation`` presents the homology of the double
branched cover of a braid closure with strands - 1 generators, however
long the word, and ``support.snf_diagonal_oracle`` reads the group off
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

from ribbonmu import BraidWord
from ribbonmu.cli import resolve_knot

from support import (burau_cover_presentation, burau_signature, matadd, rand_braid_knot,
                     run_json, seifert_cover_presentation, seifert_matrix_pairwise,
                     snf_diagonal_oracle, sturm_signature)

LONG_BRAID = Path(__file__).parent / "data" / "braid6_1201.json"


def knot_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """Uniform signed letters, drawn again until the closure is a knot,
    that is, until the word's permutation of the strands is one cycle.
    An n-cycle is a product of n - 1 transpositions and no fewer, and
    of no other parity, so the length must be one of strands - 1,
    strands + 1, ...."""
    assert length >= strands - 1 and (length - strands + 1) % 2 == 0
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(length))
        perm = list(range(strands))
        for a in map(abs, letters):
            perm[a - 1], perm[a] = perm[a], perm[a - 1]
        k, cycle = perm[0], 1
        while k:
            k, cycle = perm[k], cycle + 1
        if cycle == strands:
            return letters


def burau_torsion(strands: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    diag = snf_diagonal_oracle(burau_cover_presentation(strands, letters))
    assert 0 not in diag  # a knot's cover is a rational homology sphere
    return tuple(d for d in diag if d > 1)


def test_oracle_against_the_seifert_form_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(11)
    strand_counts = set()
    for _ in range(300):
        strands = rng.randint(2, 6)
        letters = knot_letters(rng, strands, rng.randrange(strands - 1, 13, 2))
        s = seifert_matrix_pairwise(BraidWord(strands, letters))
        diag = snf_diagonal_oracle(matadd(s, s.transpose()))
        assert burau_torsion(strands, letters) == tuple(d for d in diag if d > 1)
        strand_counts.add(strands)
    assert strand_counts == {2, 3, 4, 5, 6}


def test_random_601_letter_word_on_every_braid_route(tmp_path):
    letters = knot_letters(random.Random(601), 6, 601)
    mirror = tuple(-x for x in letters)
    torsion = burau_torsion(6, letters)
    assert burau_torsion(6, mirror) == torsion
    s = seifert_matrix_pairwise(BraidWord(6, letters))
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
    torsion = burau_torsion(spec["strands"], tuple(spec["letters"]))
    inv = resolve_knot(str(LONG_BRAID)).invariants()
    assert inv.cover_torsion.invariant_factors == torsion
    assert abs(inv.form_determinant) == prod(torsion)


def test_signature_oracle_against_sturm_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(5)
    strand_counts = set()
    for _ in range(150):
        word = rand_braid_knot(rng, max_strands=6, max_len=10)
        s = seifert_matrix_pairwise(word)
        assert burau_signature(word.strands, word.letters) == sturm_signature(
            matadd(s, s.transpose())), word
        strand_counts.add(word.strands)
    assert strand_counts == {2, 3, 4, 5, 6}
    assert burau_signature(2, (1, 1, 1)) == 2  # the trefoil's sign, as the package has it


def test_random_301_letter_word_signature_and_its_mirror(tmp_path):
    letters = knot_letters(random.Random(301), 6, 301)
    signature = burau_signature(6, letters)
    assert signature != 0  # so the mirror's negation is a real check
    for name, word, expected in (("braid", letters, signature),
                                 ("mirror", tuple(-x for x in letters), -signature)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"braid": {"strands": 6, "letters": list(word)}}))
        record = run_json("invariants", str(path), "--json")
        assert record["signature"] == str(expected), name
        assert record["mu"] == str(expected % 16), name


def cover_group(presentation) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of the cokernel of a square presentation."""
    diag = snf_diagonal_oracle(presentation)
    return diag.count(0), tuple(d for d in diag if d > 1)


def test_k_fold_cover_oracles_agree_on_small_words():
    # Oracle against oracle: no package algorithm computes either side.
    rng = random.Random(3)
    for k in range(2, 7):
        for _ in range(50):
            word = rand_braid_knot(rng, max_strands=5)
            s = seifert_matrix_pairwise(word)
            assert cover_group(burau_cover_presentation(word.strands, word.letters, k)) == \
                cover_group(seifert_cover_presentation(s, k)), (word, k)


@pytest.mark.parametrize("strands, letters, groups", [
    # the trefoil's k = 5 cover is the Poincare sphere, its k = 6 cover has b1 = 2
    (2, (1, 1, 1), {2: (0, (3,)), 3: (0, (2, 2)), 4: (0, (3,)), 5: (0, ()),
                    6: (2, ()), 7: (0, ())}),
    (3, (1, -2, 1, -2), {3: (0, (4, 4)), 5: (0, (11, 11)), 7: (0, (29, 29))}),
], ids=["trefoil", "figure8"])
def test_k_fold_covers_of_the_catalog_knots(strands, letters, groups):
    s = seifert_matrix_pairwise(BraidWord(strands, letters))
    for k, group in groups.items():
        assert cover_group(burau_cover_presentation(strands, letters, k)) == group, k
        assert cover_group(seifert_cover_presentation(s, k)) == group, k
