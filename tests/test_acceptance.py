"""Acceptance suite: one test per release criterion, at full scale.

Every criterion prints a ``PASS criterion N`` line on success (visible
with ``pytest -s``); a failure shows up as an ordinary pytest failure
for that criterion's test.  All arithmetic is exact, so the numeric
criteria carry zero tolerance.
"""

import io
import json
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from ribbonmu import (
    Conclusion,
    E8,
    FiniteAbelianGroup,
    InducedMap,
    IntMatrix,
    TwoKnotInvariants,
    alinking,
    combine_doubles,
    determinant,
    direct_sum,
    intersection_form,
    is_double,
    obstruct_ribbon_equivalent,
    obstruct_ribbon_trivial,
    seifert_matrix_from_braid,
    signature_and_determinant,
    smith_normal_form,
    validate_seifert,
)
from ribbonmu import BraidWord, catalog
from ribbonmu.cli import main

from support import (
    address_space_cap,
    block_diag,
    from_decimal_rows,
    matmul,
    package_env,
    rand_group_factors,
    rand_matrix,
    rand_seifert,
    rand_symmetric,
    rand_unimodular,
    sturm_signature,
    time_limit,
    zeros,
)

TREFOIL = validate_seifert(IntMatrix.from_rows([[1, 1], [0, 1]]))
FIGURE8 = validate_seifert(IntMatrix.from_rows([[1, 1], [0, -1]]))
UNKNOT = validate_seifert(IntMatrix.empty())


@pytest.fixture(scope="module")
def seifert_corpus():
    rng = random.Random(2026)
    return [rand_seifert(rng) for _ in range(500)]


def test_c01_mu_regression():
    assert TwoKnotInvariants.from_seifert(TREFOIL).mu.value == 2
    assert TwoKnotInvariants.from_seifert(FIGURE8).mu.value == 0
    assert TwoKnotInvariants.from_even_form(E8).mu.value == 8
    print("PASS criterion 1: mu values 2 / 0 / 8 reproduced exactly")


def test_c02_homology_regression():
    assert TwoKnotInvariants.from_seifert(TREFOIL).cover_torsion == FiniteAbelianGroup((3,))
    assert TwoKnotInvariants.from_seifert(FIGURE8).cover_torsion == FiniteAbelianGroup((5,))
    print("PASS criterion 2: branched cover homology Z3 / Z5 reproduced exactly")


def test_c03_obstruction_verdicts():
    v1 = obstruct_ribbon_trivial(TwoKnotInvariants.from_seifert(TREFOIL))
    assert v1.conclusion is Conclusion.OBSTRUCTED_BY_MU
    v2 = obstruct_ribbon_trivial(TwoKnotInvariants.from_seifert(FIGURE8))
    assert v2.conclusion is Conclusion.OBSTRUCTED_BY_TORSION
    five_twist_spun_trefoil = TwoKnotInvariants.from_even_form(E8)
    v3 = obstruct_ribbon_equivalent(five_twist_spun_trefoil,
                                    TwoKnotInvariants.from_seifert(UNKNOT))
    assert v3.conclusion is Conclusion.OBSTRUCTED_BY_MU
    assert [m.value for m in v3.mu_pair] == [8, 0]
    print("PASS criterion 3: nontrivial 2-knots obstructed as claimed "
          "(mu for the trefoil spin, torsion for the figure-eight spin, "
          "mu 8 vs 0 for the 5-twist-spun trefoil)")


def test_c04_snf_property_suite():
    rng = random.Random(4)
    cases = 0
    for _ in range(1000):
        m = rand_matrix(rng, max_dim=8, lo=-50, hi=50)
        res = smith_normal_form(m)
        assert matmul(res.U, m, res.V) == res.D
        assert determinant(res.U) in (1, -1)
        assert determinant(res.V) in (1, -1)
        diag = res.D.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)
        cases += 1
    assert cases == 1000
    print(f"PASS criterion 4: SNF decomposition valid on {cases}/1000 "
          "random matrices up to 8x8")


def test_c05_signature_oracle_equivalence():
    rng = random.Random(5)
    cases = 0
    for _ in range(500):
        q = rand_symmetric(rng, max_dim=6, lo=-50, hi=50)
        assert signature_and_determinant(q)[0] == sturm_signature(q)
        cases += 1
    assert cases == 500
    print(f"PASS criterion 5: signature matches the Sturm-sequence oracle "
          f"on {cases}/500 random symmetric matrices up to 6x6")


def test_c06_doubling_and_combiner_suite():
    rng = random.Random(6)
    cases = 0
    for _ in range(500):
        g = FiniteAbelianGroup(rand_group_factors(rng))
        half = is_double(direct_sum(g, g))
        assert half is not None and half == g
        x = FiniteAbelianGroup(rand_group_factors(rng, max_len=2))
        y = FiniteAbelianGroup(rand_group_factors(rng, max_len=2))
        b = FiniteAbelianGroup(rand_group_factors(rng, max_len=2))
        a = direct_sum(direct_sum(x, x), b)
        c = direct_sum(direct_sum(y, y), b)
        p = combine_doubles(a, b, c)
        assert direct_sum(a, c) == direct_sum(p, p)
        cases += 1
    assert cases == 500
    print(f"PASS criterion 6: doubling recovered and combiner verified on "
          f"{cases}/500 random groups")


def test_c07_parity_theorem(seifert_corpus):
    for s in seifert_corpus:
        q = intersection_form(s)
        assert determinant(q) % 2 == 1
        assert all(q.entries[i][i] % 2 == 0 for i in range(q.rows))
    print(f"PASS criterion 7: det(S + S^t) odd and diagonal even on "
          f"{len(seifert_corpus)}/500 random valid Seifert matrices")


def test_c08_additivity(seifert_corpus):
    rng = random.Random(8)
    mus = [TwoKnotInvariants.from_seifert(s).mu.value for s in seifert_corpus]
    forms = [intersection_form(s) for s in seifert_corpus]
    pairs = 0
    for _ in range(500):
        i, j = rng.randrange(len(forms)), rng.randrange(len(forms))
        block = block_diag(forms[i], forms[j])
        mu = TwoKnotInvariants.from_even_form(block).mu
        assert mu.value == (mus[i] + mus[j]) % 16
        pairs += 1
    assert pairs == 500
    print(f"PASS criterion 8: block-sum mu additivity held on {pairs}/500 "
          "pairs drawn from the criterion-7 corpus")


def test_c09_braid_cross_check():
    for word, name in ((BraidWord(2, (1, 1, 1)), "trefoil"),
                       (BraidWord(3, (1, -2, 1, -2)), "figure8")):
        derived = seifert_matrix_from_braid(word)
        reference = catalog(name).seifert
        dq, rq = intersection_form(derived), intersection_form(reference)
        assert abs(determinant(dq)) == abs(determinant(rq))
        assert (abs(signature_and_determinant(dq)[0])
                == abs(signature_and_determinant(rq)[0]))
        assert TwoKnotInvariants.from_seifert(derived).cover_torsion == \
            TwoKnotInvariants.from_seifert(reference).cover_torsion
    print("PASS criterion 9: braid-derived trefoil and figure-eight match "
          "the catalog matrices in |det|, |sigma|, and torsion")


def test_c10_alinking():
    rng = random.Random(10)
    cases = [
        (InducedMap.from_columns([]), 0),
        (InducedMap(zeros(2, 2)), 0),
        (InducedMap.from_columns([[1, 0]]), 1),
        (InducedMap.from_columns([[5, 3]]), 1),
        (InducedMap.from_columns([[2, 4]]), 2),
    ]
    for iota, expected in cases:
        assert alinking(iota) == expected
        for _ in range(50):
            p = rand_unimodular(rng, 2)
            q = rand_unimodular(rng, iota.matrix.cols)
            assert alinking(InducedMap(matmul(p, iota.matrix, q))) == expected
    print("PASS criterion 10: alinking branch values and unimodular "
          "invariance held on all cases (50 basis changes each)")


DENSE80 = Path(__file__).parent / "data" / "dense80.json"


@pytest.mark.parametrize("n", [60, 80])
def test_c11_dense_snf_transforms(tmp_path, n):
    # Entries uniform in [-50, 50] from Random(1); the 80 x 80 matrix is
    # committed so that other tests and benchmarks read the same one.
    rng = random.Random(1)
    rows = [[str(rng.randint(-50, 50)) for _ in range(n)] for _ in range(n)]
    if n == 80:
        path = DENSE80
        assert json.loads(path.read_text()) == rows
    else:
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(rows))
    out = io.StringIO()
    with time_limit(20.0):  # carrying U and V along took 79 s at n = 80
        code = main(["snf", "--file", str(path), "--full", "--json"], out=out)
    assert code == 0
    record = json.loads(out.getvalue())
    assert max(len(x.lstrip("-")) for key in "uv" for row in record[key] for x in row) < 4300
    m, u, d, v = (from_decimal_rows(x) for x in
                  (rows, record["u"], record["d"], record["v"]))
    assert matmul(u, m, v) == d
    # det U * det M * det V = det D, all integers, and |det M| = det D,
    # so det U * det V = +-1: both are units.
    assert abs(determinant(m)) == prod(d.diagonal()) != 0
    print(f"PASS criterion 11: snf --full on a dense {n} x {n} matrix, "
          "U M V = D exactly with unimodular U and V")


EVEN80 = Path(__file__).parent / "data" / "even80.json"


def test_c12_dense_even_form_torsion_modulo_determinant():
    # P^t B P of 80 rows: B is three +-E8 blocks, seven hyperbolic pairs
    # and 21 blocks [[2s, 1], [1, 2bs]] with coker Z_(4b-1), P a product of
    # 160 random shears; written by even_form(random.Random(80), 80) of
    # perfbench/corpus.py, the dense-forms recipe.  The signature,
    # determinant and cover below are read off B.
    det = -65711250078806504837999432027130558589028671875
    cover = [5, 15, 15, 15, 2445, 13445055, 118455301128916361986257709822995]
    out = io.StringIO()
    with time_limit(10.0):
        code = main(["invariants", str(EVEN80), "--json"], out=out)
    assert code == 0
    record = json.loads(out.getvalue())
    assert record["signature"] == "-18"
    assert record["form_determinant"] == str(det)
    assert record["h1_invariant_factors"] == [str(d) for d in cover]
    form = from_decimal_rows(json.loads(EVEN80.read_text())["even_form"])
    assert determinant(form) == det == -prod(cover)
    print("PASS criterion 12: the torsion of a dense 80-row even form, reduced "
          "modulo its determinant, matches its block recipe")


LONG_BRAID = Path(__file__).parent / "data" / "braid6_1201.json"
ADDRESS_SPACE_KB = 150_000


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS as Linux enforces it")
@pytest.mark.parametrize("command", ["invariants", "obstruct"])
def test_c13_long_braid_record_in_bounded_memory(command):
    # The 1201-letter word's record is 14 MB of JSON for a 1196-row form
    # with about 5k nonzeros.  Built as n^2 decimal strings and one
    # json.dumps string, it peaked at 263 MB and died with MemoryError
    # under this limit; streamed row by row it peaks near 60 MB.  Its
    # verdict against the trivial 2-knot is settled by mu alone.
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonmu", command, str(LONG_BRAID), "--json"],
        capture_output=True, env=package_env(),
        preexec_fn=address_space_cap(ADDRESS_SPACE_KB), timeout=30)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stderr == b""
    record = json.loads(proc.stdout)
    if command == "invariants":
        assert len(record["form"]) == len(record["seifert_matrix"]) == 1196
    else:
        assert (record["conclusion"], record["mu_pair"]) == ("obstructed-by-mu", ["14", "0"])
    print(f"PASS criterion 13: the 1201-letter braid's {command} record is "
          f"written within {ADDRESS_SPACE_KB} kB of address space")
