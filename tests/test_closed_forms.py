"""Knot families whose invariants are known in closed form, run through
the CLI at 200-1200 rows: linear plumbings on the ``seifert_matrix``
route, scrambled torus words on the braid route and torus Seifert
matrices as knot files.  The expected values come from ``support``'s
continuant and lattice count, never from the package."""

import json
import random

import pytest

from ribbonmu import BraidWord, IntMatrix, seifert_matrix_from_braid

from support import (charpoly_signature, cokernel_oracle, det_fraction, matadd, matsub,
                     plumbing, plumbing_invariants, run_json, scrambled_torus_word,
                     torus_determinant, torus_letters, torus_signature)

PLUMBING_X = (-3, -2, -1, 1, 2, 3)


def assert_invariants(record, signature, det, factors):
    assert record["signature"] == str(signature)
    assert record["mu"] == str(signature % 16)
    assert abs(int(record["form_determinant"])) == abs(det)
    assert record["h1_invariant_factors"] == [str(f) for f in factors]


def random_plumbing(n):
    rng = random.Random(5)
    return [rng.choice(PLUMBING_X) for _ in range(n)]


class TestPlumbings:
    def test_closed_form_against_oracles(self):
        rng = random.Random(5)
        for _ in range(150):
            xs = [rng.choice(PLUMBING_X) for _ in range(rng.choice((2, 4, 6)))]
            s = IntMatrix.from_rows(plumbing(xs))
            form = matadd(s, s.transpose())
            signature, det, factors = plumbing_invariants(xs)
            assert charpoly_signature(form) == signature
            assert det_fraction(form) == det
            assert cokernel_oracle(form) == (0, factors)
            assert det_fraction(matsub(s, s.transpose())) == 1

    @pytest.mark.parametrize("n", [200, 600])
    def test_inline_seifert_matrix(self, n):
        xs = random_plumbing(n)
        record = run_json("invariants", json.dumps(plumbing(xs)), "--json")
        signature, det, factors = plumbing_invariants(xs)
        assert len(record["form"]) == n
        assert record["form_determinant"] == str(det)
        assert_invariants(record, signature, det, factors)

    def test_knot_file(self, tmp_path):
        xs = random_plumbing(1200)
        path = tmp_path / "plumbing.json"
        path.write_text(json.dumps({"seifert_matrix": plumbing(xs)}))
        record = run_json("invariants", str(path), "--json")
        signature, det, factors = plumbing_invariants(xs)
        assert record["source"] == "seifert-matrix"
        assert record["form_determinant"] == str(det)
        assert_invariants(record, signature, det, factors)


class TestTorusRoutes:
    # (p, q, new strands, conjugator letters).  Each |det| is 1 or
    # squarefree (201 = 3 * 67, 101 prime), so the group of that order is cyclic.
    SCRAMBLED = ((3, 101, 2, 100), (2, 201, 3, 300), (5, 61, 1, 200), (4, 101, 2, 250))

    @pytest.mark.parametrize("p, q, new_strands, conjugator", SCRAMBLED)
    def test_scrambled_word_on_the_braid_route(self, p, q, new_strands, conjugator):
        strands, letters = scrambled_torus_word(random.Random(10), p, q, new_strands,
                                                conjugator)
        record = run_json("braid", " ".join(map(str, letters)), "--strands", str(strands),
                          "--json")
        det = torus_determinant(p, q)
        assert len(record["form"]) == len(letters) - strands + 1 > (p - 1) * (q - 1)
        assert_invariants(record, torus_signature(p, q), det, (det,) if det > 1 else ())

    @pytest.mark.parametrize("p, q", [(3, 101), (5, 151)])
    def test_seifert_matrix_file(self, tmp_path, p, q):
        s = seifert_matrix_from_braid(BraidWord(p, torus_letters(p, q))).matrix
        path = tmp_path / "torus.json"
        path.write_text(json.dumps({"seifert_matrix": s.to_lists()}))
        record = run_json("invariants", str(path), "--json")
        det = torus_determinant(p, q)
        assert record["source"] == "seifert-matrix"
        assert len(record["form"]) == (p - 1) * (q - 1)
        assert_invariants(record, torus_signature(p, q), det, (det,) if det > 1 else ())
