import errno
import importlib
import io
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ribbonmu
from ribbonmu import (IntMatrix, TwoKnotInvariants, braid, cli, exactla,
                      seifert_matrix_from_braid, signature_and_determinant, spinmu)
from ribbonmu.cli import main

from support import (address_space_cap, block_diag, charpoly_signature, cokernel_oracle,
                     digit_limit_lifted, from_decimal_rows, knot_word, matadd, matmul,
                     package_env, rand_unimodular, run_cli, run_json, run_module,
                     time_limit, to_decimal_rows, zeros)


DATA = Path(__file__).parent / "data"
LONG_BRAID = DATA / "braid6_1201.json"
TWO_TREFOILS = "[[1,1,0,0],[0,1,0,0],[0,0,1,1],[0,0,0,1]]"  # cover Z3 + Z3, a double


class TestInvariantsCommand:
    def test_catalog_figure8_json(self):
        record = run_json("invariants", "figure8", "--json")
        assert record["mu"] == "0"
        assert record["h1_invariant_factors"] == ["5"]
        assert record["h1_is_double"] is False

    def test_catalog_unknot_doubling_passes(self):
        record = run_json("invariants", "unknot", "--json")
        assert record["mu"] == "0"
        assert record["h1_invariant_factors"] == []
        assert record["h1_is_double"] is True

    def test_poincare_even_form_route(self):
        record = run_json("invariants", "poincare", "--json")
        assert record["mu"] == "8"
        assert record["source"] == "catalog"

    def test_numbers_are_decimal_strings(self):
        record = run_json("invariants", "trefoil", "--json")
        for key in ("mu", "signature", "form_determinant"):
            assert isinstance(record[key], str)
        for row in record["form"]:
            assert all(isinstance(x, str) for x in row)
        # a group is its invariant factors; a group that is no double has the half null
        assert (record["h1_invariant_factors"], record["h1_double_half"]) == (["3"], None)
        for knot, half in ((TWO_TREFOILS, ["3"]), ("poincare", [])):  # 0 is 0 + 0
            assert run_json("invariants", knot, "--json")["h1_double_half"] == half

    def test_round_trip_recompute(self):
        record = run_json("invariants", "figure8", "--json")
        form = from_decimal_rows(record["form"])
        recomputed = TwoKnotInvariants.from_even_form(form)
        assert str(recomputed.mu.value) == record["mu"]
        assert str(recomputed.form_determinant) == record["form_determinant"]
        assert [str(d) for d in recomputed.cover_torsion.invariant_factors] == \
            record["h1_invariant_factors"]
        assert str(signature_and_determinant(form)[0]) == record["signature"]

    def test_validation_error_exit_status(self, capsys):
        code, _ = run_cli("invariants", "[[1,0],[0,1]]")
        assert code == 2
        assert "not a knot Seifert matrix" in capsys.readouterr().err

    def test_unknown_catalog_name(self, capsys):
        code, _ = run_cli("invariants", "nosuchknot")
        assert code == 2
        assert "available" in capsys.readouterr().err


class TestObstructCommand:
    def test_trefoil_against_trivial(self):
        record = run_json("obstruct", "trefoil", "--json")
        assert record["conclusion"] == "obstructed-by-mu"
        assert record["mu_pair"] == ["2", "0"]

    def test_figure8_against_trivial(self):
        record = run_json("obstruct", "figure8", "--json")
        assert record["conclusion"] == "obstructed-by-torsion"
        assert record["torsion_witness"] == ["5"]

    def test_unknot_vs_unknot(self):
        record = run_json("obstruct", "unknot", "unknot", "--json")
        assert record["conclusion"] == "no-obstruction-found"

    def test_poincare_vs_unknot(self):
        record = run_json("obstruct", "poincare", "unknot", "--json")
        assert record["conclusion"] == "obstructed-by-mu"
        assert record["mu_pair"] == ["8", "0"]


class TestTextOutput:
    """The text printers, byte for byte."""

    @pytest.mark.parametrize("argv, text", [
        (["invariants", "trefoil"],
         "name: trefoil  (source: catalog)\n"
         "mu = 2 (mod 16)\nsignature = 2\nform determinant = 3\n"
         "H1(Seifert hypersurface) = Z3\n"
         "doubling test: fails (not of the form G + G)\n"),
        (["obstruct", "trefoil"],
         "trefoil vs trivial 2-knot:\nconclusion: obstructed-by-mu\n"
         "mu-invariants differ (2 (mod 16) vs 0 (mod 16)); "
         "ribbon-move equivalent 2-links have equal mu-invariants\n"),
        (["snf", "[[2,4],[6,8]]"], "D =\n[2 0]\n[0 4]\n"),
        (["snf", "[[2,4],[6,8]]", "--full"],
         "D =\n[2 0]\n[0 4]\nU =\n[-2 1]\n[3 -1]\nV =\n[1 0]\n[0 1]\n"),
        (["snf", "[]"], "D =\n<empty 0x0>\n"),
        (["alink", "(2,4)"], "alinking = 2\nalinking mod 2 = 0\n"),
        (["braid", "--strands", "2", "1", "1", "1"],
         "Seifert matrix:\n[1 0]\n[-1 1]\n"
         "name: closure of [1, 1, 1] on 2 strands  (source: braid)\n"
         "mu = 2 (mod 16)\nsignature = 2\nform determinant = 3\n"
         "H1(Seifert hypersurface) = Z3\n"
         "doubling test: fails (not of the form G + G)\n"),
        (["invariants", TWO_TREFOILS],
         "name: <inline>  (source: seifert-matrix)\n"
         "mu = 4 (mod 16)\nsignature = 4\nform determinant = 9\n"
         "H1(Seifert hypersurface) = Z3 \u2295 Z3\n"
         "doubling test: passes, half = Z3\n"),
    ], ids=["invariants", "obstruct", "snf", "snf-full", "snf-empty", "alink", "braid",
            "invariants-double"])
    def test_text(self, argv, text):
        assert run_cli(*argv) == (0, text)


class TestSnfCommand:
    def test_diagonal(self):
        assert run_json("snf", "[[2,4],[6,8]]", "--json")["d"] == [["2", "0"], ["0", "4"]]

    def test_full_transforms_reconstruct(self):
        record = run_json("snf", "[[2,4],[6,8]]", "--full", "--json")
        u, v, d = (from_decimal_rows(record[key]) for key in "uvd")
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert matmul(u, m, v) == d

    @pytest.mark.parametrize("data", [
        "dense80", "even80", [[2, 4, 6], [4, 8, 12]], [[0, 0], [6, 12], [4, 0], [0, 0]],
        [[0, 0, 0]], [[3], [0]], []])
    def test_diagonal_alone_builds_no_transforms(self, tmp_path, monkeypatch, data):
        if isinstance(data, str):
            data = json.loads((DATA / f"{data}.json").read_text())
        if isinstance(data, dict):  # a knot file: take its even form
            data = data["even_form"]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(data))
        code, full = run_cli("snf", "--file", str(path), "--full", "--json")
        assert code == 0

        def refuse(matrix):
            raise AssertionError("snf without --full built U and V")

        monkeypatch.setattr(cli, "smith_normal_form", refuse)
        with time_limit(10.0):
            code, alone = run_cli("snf", "--file", str(path), "--json")
        assert code == 0
        # byte-identical: the record without --full is the d field alone
        assert alone == full[:full.index(', "u": ')] + "}\n"

    def test_parse_error_exit_status(self, capsys):
        code, _ = run_cli("snf", "[[2,4")
        assert code == 3
        err = capsys.readouterr().err
        assert "parse error" in err and "line" in err and "column" in err

    @pytest.mark.parametrize("depth", [5000, 100_000])
    def test_deep_nesting_is_parse_error(self, capsys, depth):
        # Python 3.13's decoder takes 5000 levels (then it is a bad entry);
        # no version takes 100 000
        code, _ = run_cli("snf", "[" * depth + "]" * depth)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and len(err) < 200
        if depth == 100_000:
            assert "nested too deeply" in err


class TestAlinkCommand:
    @pytest.mark.parametrize("text, record", [
        ("(2,4)", {"alinking": "2", "mod2": "0"}),
        ("(0,0)", {"alinking": "0", "mod2": "0"}),
        ("[[3],[0]]", {"alinking": "3", "mod2": "1"}),
    ], ids=["column", "zero-column", "row-matrix"])
    def test_map_syntax(self, text, record):
        assert run_json("alink", text, "--json") == record

    def test_outside_classification_is_validation_error(self, capsys):
        code, _ = run_cli("alink", "(1,0) (0,1)")
        assert code == 2
        assert "alinking" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "(\u0661,2)",  # int() reads the Arabic-Indic digit one as 1; the column syntax does not
        "(1,\u00a02)",  # a no-break space is Unicode whitespace, not a separator of the syntax
    ], ids=["digit", "space"])
    def test_non_ascii_character_is_parse_error(self, capsys, text):
        assert run_cli("alink", text) == (3, "")
        assert capsys.readouterr().err == (
            f"parse error: cannot parse induced map from {text!r}; "
            'use "(a,b) (c,d)" columns or a JSON 2-row matrix\n')

    def test_ascii_spaces_in_columns(self):
        assert run_cli("alink", "(1, 2) (3,4)")[0] == 2  # read, then outside the classification
        assert run_cli("alink", "( 2 ,\t4 ) (0,0)", "--json") == \
            run_cli("alink", "(2,4)(0,0)", "--json")

    @pytest.mark.parametrize("text, code", [
        ("(1,\r0) (2,0)", 0), ("(1,0)\r(2,0)", 0), ("(1,0);(2,0)", 0), ("(1,0)(2,0)", 0),
        ("(1,0) x (2,0)", 3), ("twist", 3),
    ], ids=["cr-inside", "cr-between", "semicolon", "adjacent", "letter-between", "no-column"])
    def test_one_separator_rule(self, text, code):
        # ASCII whitespace inside a column; between columns that, "," or ";"; one column at least
        assert run_cli("alink", text)[0] == code

    def test_three_rows_is_parse_error(self, tmp_path, capsys):
        matrix = "[[1], [2], [3]]"
        (tmp_path / "m.json").write_text(matrix)
        for argv in ([matrix], ["--file", str(tmp_path / "m.json")]):
            assert run_cli("alink", *argv)[0] == 3
            assert "exactly 2 rows, got 3" in capsys.readouterr().err


class TestBraidCommand:
    def test_trefoil_braid(self):
        record = run_json("braid", "--strands", "2", "1", "1", "1", "--json")
        assert record["mu"] == "2"
        assert record["form_determinant"] in ("3", "-3")

    def test_link_closure_rejected(self, capsys):
        code, _ = run_cli("braid", "--strands", "2", "1", "1")
        assert code == 2
        assert "components" in capsys.readouterr().err

    def test_huge_strand_count_is_not_a_knot(self, one_second, capsys):
        code, _ = run_cli("braid", "--strands", "100000000000", "1")
        assert code == 2
        assert "99999999999 components" in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs RLIMIT_AS as Linux enforces it")
    def test_huge_strand_count_in_bounded_memory(self):
        # nothing is allocated per strand: a list of 1e11 would not fit
        proc = run_module("braid", "--strands", "100000000000", "1",
                          preexec_fn=address_space_cap(1_000_000), timeout=10)
        assert proc.returncode == 2, proc.stderr.decode()[-2000:]
        assert b"99999999999 components" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--strands", "2", "\u0661", "1", "1"], ["--strands", "2", "+1", "1", "1"],
        ["--strands", "2", "1_0"], ["--strands", "2", "0x1"], ["--strands", "2", "1 +1 1"],
        ["--strands", "2", "1.0"], ["--strands", "2", "\uff11"], ["--strands", "2", "-"],
        ["--strands", "\u0662", "1", "1", "1"], ["--strands", "+2", "1", "1", "1"],
        ["--strands", "2_0", "1"], ["--strands", "2", "1\u00a01 1"],
        ["--strands", "2", "1\u30001 1"], ["--strands", "2", "x"],
        ["--strands", "2", "-1.5"],  # a word starting with a dash is a letter, not an option
        ["--strands", "x", "1"],
    ], ids=lambda argv: " ".join(argv).encode("ascii", "backslashreplace").decode())
    def test_integers_are_ascii_decimal(self, capsys, argv):
        # letters and --strands take the grammar of string matrix entries;
        # only ASCII whitespace separates letters, not U+00A0 or U+3000.
        # The error line names the first word outside the grammar.
        strands, *letters = argv[1:]
        words = [strands] + [word for token in letters for word in token.split(" ")]
        bad = next(word for word in words if re.fullmatch("-?[0-9]+", word) is None)
        where = "ribbonmu braid: argument --strands: " if bad == strands else ""
        assert run_cli("braid", *argv) == (3, "")
        err = capsys.readouterr().err
        assert err == f"parse error: {where}{bad!r} is not an integer -?[0-9]+\n"

    @pytest.mark.parametrize("token", ["1\t-2 1\n-2", " 1\r-2\x0b1\x0c-2 "])
    def test_ascii_whitespace_separates_letters(self, token):
        record = run_json("braid", "--strands", "3", token, "--json")
        assert record["name"] == "closure of [1, -2, 1, -2] on 3 strands"

    @pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("007", 7), ("-12", -12)])
    def test_integer_grammar(self, text, value):
        assert cli.integer(text) == value


class TestKnotFiles:
    def test_file_with_braid_source(self, tmp_path):
        path = tmp_path / "fig8.json"
        path.write_text(json.dumps(
            {"name": "fig8-from-braid",
             "braid": {"strands": 3, "letters": [1, -2, 1, -2]}}))
        record = run_json("invariants", str(path), "--json")
        assert record["name"] == "fig8-from-braid"
        assert record["mu"] == "0"
        assert record["h1_invariant_factors"] == ["5"]

    def test_file_with_even_form(self, tmp_path):
        path = tmp_path / "hyperbolic.json"
        path.write_text(json.dumps(
            {"even_form": [["0", "1"], ["1", "0"]]}))
        record = run_json("invariants", str(path), "--json")
        assert record["mu"] == "0"
        assert record["source"] == "even-form"

    def test_file_with_two_sources_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"catalog": "trefoil", "seifert_matrix": [["1"]]}))
        code, _ = run_cli("invariants", str(path))
        assert code == 3

    def test_even_form_overrides_seifert_route(self, tmp_path):
        # A twist spin other than the 2-twist spin: the Seifert matrix of
        # the spun 1-knot travels with the hypersurface bounding form,
        # and the form is what the invariants are read from.
        e8 = [["2", "-1", "0", "0", "0", "0", "0", "0"],
              ["-1", "2", "-1", "0", "0", "0", "0", "0"],
              ["0", "-1", "2", "-1", "0", "0", "0", "0"],
              ["0", "0", "-1", "2", "-1", "0", "0", "0"],
              ["0", "0", "0", "-1", "2", "-1", "0", "-1"],
              ["0", "0", "0", "0", "-1", "2", "-1", "0"],
              ["0", "0", "0", "0", "0", "-1", "2", "0"],
              ["0", "0", "0", "0", "-1", "0", "0", "2"]]
        path = tmp_path / "five_twist_spun_trefoil.json"
        path.write_text(json.dumps(
            {"name": "five-twist-spun trefoil",
             "seifert_matrix": [["1", "1"], ["0", "1"]],
             "even_form": e8}))
        record = run_json("invariants", str(path), "--json")
        assert record["mu"] == "8"
        assert record["h1_invariant_factors"] == []

    @pytest.mark.parametrize("spec", [
        {"strands": 3, "letters": 5},
        {"strands": "x", "letters": [1, 2]},
    ], ids=["letters-not-a-list", "strands-not-an-int"])
    def test_malformed_braid_is_parse_error(self, tmp_path, capsys, spec):
        path = tmp_path / "bad_braid.json"
        path.write_text(json.dumps({"braid": spec}))
        code, _ = run_cli("invariants", str(path))
        assert code == 3
        assert "braid 'strands' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("data, key", [
        ({"catalog": ["trefoil"]}, "catalog"),
        ({"catalog": "trefoil", "name": {"a": 1}}, "name"),
    ], ids=["catalog-not-a-string", "name-not-a-string"])
    def test_non_string_catalog_or_name_is_parse_error(self, tmp_path, capsys,
                                                       data, key):
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps(data))
        code, text = run_cli("invariants", str(path), "--json")
        assert (code, text) == (3, "")
        assert f"'{key}' must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"catalog": "trefoil"},
        {"catalog": "poincare"},
        {"catalog": "trefoil", "even_form": [["0", "1"], ["1", "0"]]},
        {"braid": {"strands": 2, "letters": [1, 1, 1]}},
        {"seifert_matrix": [["1", "1"], ["0", "1"]]},
        {"even_form": [["0", "1"], ["1", "0"]]},
    ], ids=["catalog", "catalog-form", "catalog-and-form", "braid", "seifert",
            "form"])
    def test_name_is_honoured_for_every_source(self, tmp_path, data):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(dict(data, name="mine")))
        assert run_json("invariants", str(path), "--json")["name"] == "mine"
        path.write_text(json.dumps(data))
        assert run_json("invariants", str(path), "--json")["name"] == "k"

    @pytest.mark.parametrize("key", ["even_from", "Name", "seifert", "twist"])
    def test_unknown_key_is_parse_error(self, tmp_path, capsys, key):
        # ignored, a misspelled even_form would leave the Seifert route (mu 2,
        # not 8), and a twist inside braid the 2-twist spin
        data = {"seifert_matrix": [[1, 1], [0, 1]], key: to_decimal_rows(braid.E8)}
        if key == "twist":
            data = {"braid": {"strands": 2, "letters": [1, 1, 1], "twist": 5}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        assert run_cli("invariants", str(path), "--json") == (3, "")
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_huge_strand_count_is_not_a_knot(self, tmp_path, one_second, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"braid": {"strands": 100000000000, "letters": [1, -2, 1]}}))
        code, _ = run_cli("invariants", str(path))
        assert code == 2
        assert "components" in capsys.readouterr().err

    def test_one_record_per_route(self, tmp_path):
        # the trefoil by catalog name, by two kinds of knot file and inline
        for stem, data in (("by-name", {"catalog": "trefoil"}),
                           ("by-matrix", {"seifert_matrix": [[1, 1], [0, 1]]})):
            (tmp_path / f"{stem}.json").write_text(json.dumps(data))
        specs = ["trefoil", str(tmp_path / "by-name.json"),
                 str(tmp_path / "by-matrix.json"), "[[1,1],[0,1]]"]
        records = [run_json("invariants", spec, "--json") for spec in specs]
        assert [(r.pop("name"), r.pop("source")) for r in records] == [
            ("trefoil", "catalog"), ("by-name", "catalog"),
            ("by-matrix", "seifert-matrix"), ("<inline>", "seifert-matrix")]
        assert all(r == records[0] for r in records)
        assert records[0]["mu"] == "2"
        assert cli.resolve_knot("trefoil") is braid.catalog("trefoil")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        code, _ = run_cli("invariants", str(path))
        assert code == 3

    def test_batch_reports_every_file(self, tmp_path, capsys):
        (tmp_path / "a_good.json").write_text(json.dumps({"catalog": "trefoil"}))
        (tmp_path / "b_truncated.json").write_text('{"braid": ')
        (tmp_path / "c_list.json").write_text("[1, 2]")
        (tmp_path / "d_link.json").write_text(
            json.dumps({"braid": {"strands": 2, "letters": [1, 1]}}))
        (tmp_path / "e_good.json").write_text(json.dumps({"catalog": "figure8"}))
        code, text = run_cli("invariants", "--batch", str(tmp_path))
        assert code == 3  # the worst status of any file
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["name"] for r in records] == [
            "a_good", "b_truncated.json", "c_list.json", "d_link.json", "e_good"]
        assert [r.get("exit") for r in records] == [None, 3, 3, 2, None]
        assert "parse error at line 1" in records[1]["error"]
        assert "must be a JSON object" in records[2]["error"]
        assert "components" in records[3]["error"]
        assert records[4]["mu"] == "0"
        assert capsys.readouterr().err == "5 files, 3 failed\n"
        (tmp_path / "b_truncated.json").unlink()
        (tmp_path / "c_list.json").unlink()
        assert run_cli("invariants", "--batch", str(tmp_path))[0] == 2

    def test_batch_lists_json_names_in_byte_order(self, tmp_path, capsys):
        for name in (".h.json", "B.json", "a.json"):
            (tmp_path / name).write_text(json.dumps({"catalog": "trefoil"}))
        (tmp_path / "sub.json").mkdir()  # listed, and unreadable as a file
        (tmp_path / "note.txt").write_text("ignored")
        code, text = run_cli("invariants", "--batch", str(tmp_path))
        assert code == 3
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["name"] for r in records] == [".h", "B", "a", "sub.json"]
        assert [r.get("exit") for r in records] == [None, None, None, 3]
        assert records[3]["error"].startswith("cannot read ")
        assert capsys.readouterr().err == "4 files, 1 failed\n"

    def test_batch_orders_names_that_are_not_utf8_by_their_bytes(self, tmp_path):
        # b"\x80" decodes to the lone surrogate "\udc80", which sorts after "é" as text
        try:
            for name in (b"\x80.json", "é.json".encode()):
                with open(os.path.join(os.fsencode(tmp_path), name), "wb") as file:
                    file.write(b'{"catalog": "trefoil"}')
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        code, text = run_cli("invariants", "--batch", str(tmp_path))
        assert code == 0
        assert [json.loads(line)["name"] for line in text.splitlines()] == ["\udc80", "é"]

    def test_bracketed_name_ending_in_json_is_a_knot_file(self, tmp_path, monkeypatch):
        # the .json ending decides: without it a leading "[" is still an inline matrix
        monkeypatch.chdir(tmp_path)
        Path("[k].json").write_text(json.dumps({"catalog": "figure8"}))
        for spec, expected in (("[k].json", ("[k]", "0")), ("[[1,1],[0,1]]", ("<inline>", "2"))):
            record = run_json("invariants", spec, "--json")
            assert (record["name"], record["mu"]) == expected

    def test_batch_directory_starting_with_a_bracket(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("[d").mkdir()
        Path("[d/a.json").write_text(json.dumps({"catalog": "trefoil"}))
        code, text = run_cli("invariants", "--batch", "[d")
        assert code == 0
        assert [(r["name"], r["mu"]) for r in map(json.loads, text.splitlines())] == [("a", "2")]

    def test_batch_record_agrees_with_a_single_run(self, tmp_path, capsys):
        files = {
            "catalog": {"catalog": "trefoil"},
            "braid": {"braid": {"strands": 3, "letters": [1, -2, 1, -2]}},
            "seifert": {"name": "mine", "seifert_matrix": [["1", "1"], ["0", "-1"]]},
            "form": {"even_form": to_decimal_rows(braid.E8)},
            "truncated": '{"braid": ',
            "unknown_key": {"catalog": "trefoil", "twist": 5},
            "link": {"braid": {"strands": 2, "letters": [1, 1]}},
            "odd_form": {"even_form": [[1, 0], [0, 1]]},
            "even_determinant": {"even_form": [[2, 0], [0, 2]]},
            "not_seifert": {"seifert_matrix": [[1, 0], [0, 1]]},
            "unknown_catalog": {"catalog": "no-such-knot"},
            "array": [1, 2],
        }
        for stem, data in files.items():
            (tmp_path / f"{stem}.json").write_text(
                data if isinstance(data, str) else json.dumps(data))
        names = sorted(f"{stem}.json" for stem in files)
        code, text = run_cli("invariants", "--batch", str(tmp_path))
        assert capsys.readouterr().err == "12 files, 8 failed\n"
        records = [json.loads(line) for line in text.splitlines()]
        assert (code, len(records)) == (3, len(names))
        for name, record in zip(names, records):
            single, out = run_cli("invariants", str(tmp_path / name), "--json")
            if single == 0:
                assert record == json.loads(out), name
                continue
            assert (record["name"], record["exit"]) == (name, single)
            kind, _, error = capsys.readouterr().err.rstrip("\n").partition(": ")
            assert (kind, error) == (("parse error" if single == 3 else "error"),
                                     record["error"]), name

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_batch_does_not_open_a_fifo(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(json.dumps({"catalog": "trefoil"}))
        os.mkfifo(tmp_path / "p.json")  # open() would wait for a writer
        with time_limit(5.0):
            code, text = run_cli("invariants", "--batch", str(tmp_path))
        records = [json.loads(line) for line in text.splitlines()]
        assert (code, [r.get("exit") for r in records]) == (3, [None, 3])
        assert records[1]["error"].startswith("cannot read ")
        assert capsys.readouterr().err == "2 files, 1 failed\n"

    def test_batch_directory_that_cannot_be_listed(self, tmp_path, monkeypatch, capsys):
        # root lists a chmod 000 directory, so the listing itself is made to fail
        def denied(path):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "listdir", denied)
        assert run_cli("invariants", "--batch", str(tmp_path)) == (3, "")
        err = capsys.readouterr().err
        assert err == f"parse error: cannot read {str(tmp_path)!r}: Permission denied\n"

    def test_read_error_names_the_path_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("invariants", "./nope.json") == (3, "")
        err = capsys.readouterr().err
        assert err == "parse error: cannot read './nope.json': No such file or directory\n"


@pytest.fixture
def one_second():
    """Turn a hang into a failure: the test body gets one second."""
    with time_limit(1.0):
        yield


# Malformed knot files: wrong types, ragged or non-numeric matrices,
# out-of-range or bool letters, missing or extra keys.  Strand counts are
# small or far too large to allocate; nothing may depend on allocating them.
def pick(*strategies):
    """One of the strategies, each as likely (st.one_of would flatten)."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


WRONG = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-10 ** 6, 10 ** 6))
ENTRY = pick(st.integers(-3, 3), st.integers(-3, 3).map(str),
             st.sampled_from(["", "x", "1.5", "0x10", " 7", "-"]), WRONG)
MATRIX = pick(st.lists(st.lists(ENTRY, max_size=4), max_size=4),
              st.lists(ENTRY, max_size=3), WRONG)
STRANDS = pick(st.integers(-2, 10 ** 4), st.sampled_from([10 ** 11, 10 ** 15]),
               WRONG)
LETTERS = pick(st.lists(st.integers(-12, 12), max_size=12),
               st.lists(st.integers(-12, 12) | st.booleans()
                        | st.integers(-10 ** 16, 10 ** 16), max_size=4),
               WRONG)
EXTRAS = {"name": WRONG, "extra": WRONG}
BRAID = pick(st.fixed_dictionaries({"strands": STRANDS, "letters": LETTERS},
                                   optional={"extra": WRONG}),
             st.fixed_dictionaries({}, optional={"strands": STRANDS,
                                                 "letters": LETTERS}),
             WRONG)
KNOT = pick(
    st.fixed_dictionaries({"braid": BRAID}, optional=EXTRAS),
    st.fixed_dictionaries({}, optional=dict(
        EXTRAS, catalog=pick(st.sampled_from(["trefoil", "poincare", "x"]), WRONG),
        braid=BRAID, seifert_matrix=MATRIX, even_form=MATRIX)),
    MATRIX)


@st.composite
def knot_file_texts(draw):
    text = json.dumps(draw(KNOT))
    if draw(st.sampled_from(["whole", "whole", "whole", "truncated"])) == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def matrix_arguments(draw):
    """An inline ``snf``, ``snf --full`` or ``alink`` argument: a matrix's
    JSON text, whole or truncated, or for ``alink`` "(a,b)" column text."""
    argv = draw(st.sampled_from([["snf"], ["snf", "--full"], ["alink"]]))
    if argv == ["alink"] and draw(st.booleans()):
        entry = pick(st.integers(-3, 3), ENTRY)
        text = " ".join(f"({a},{b})" for a, b in draw(st.lists(st.tuples(entry, entry),
                                                               max_size=4)))
    else:
        text = json.dumps(draw(MATRIX))
    if draw(st.sampled_from(["whole", "whole", "whole", "truncated"])) == "truncated":
        text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    return argv + [text]


def package_error_classes() -> list[type]:
    """Every exception class defined in a ribbonmu module.

    ``__main__`` is left out: importing it runs the CLI.
    """
    modules = [ribbonmu] + [importlib.import_module(f"ribbonmu.{m.name}")
                            for m in pkgutil.iter_modules(ribbonmu.__path__)
                            if m.name != "__main__"]
    return sorted((value for module in modules for value in vars(module).values()
                   if isinstance(value, type) and issubclass(value, BaseException)
                   and value.__module__ == module.__name__), key=lambda c: c.__name__)


class TestExitContract:
    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(text=knot_file_texts())
    def test_malformed_knot_files(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(text)
        with time_limit(1.0):
            code, _ = run_cli("invariants", str(path), "--json")
        assert code in (0, 2, 3)

    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(argv=matrix_arguments())
    def test_malformed_matrix_arguments(self, argv):
        with time_limit(1.0):
            code, _ = run_cli(*argv)
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("command", ["invariants", "obstruct"])
    def test_argument_too_long_for_a_file_name(self, tmp_path, capsys, command):
        # os.path.exists is False here (errno 36, name too long); such an
        # argument names no file, so it is looked up in the catalog, as is
        # a directory
        for spec in ("x" * 300, str(tmp_path)):
            assert run_cli(command, spec) == (2, "")
            assert "unknown catalog entry" in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
    @pytest.mark.parametrize("argv, text, key, value", [
        (["invariants", "/dev/stdin"], '{"catalog": "trefoil"}', "mu", "2"),
        (["obstruct", "/dev/stdin", "trefoil"], '{"catalog": "figure8"}',
         "mu_pair", ["0", "2"]),
        (["snf", "--file", "/dev/stdin"], "[[2, 4], [6, 8]]", "d", [["2", "0"], ["0", "4"]]),
    ], ids=["invariants", "obstruct", "snf"])
    def test_pipe_is_read_as_a_file(self, argv, text, key, value):
        # a pipe is no regular file, but a knot argument or --file naming
        # one is read like any file
        proc = run_module(*argv, "--json", input=text.encode())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)[key] == value

    @pytest.mark.parametrize("name, make, error", [
        ("nope", None, errno.ENOENT),
        ("k.json", lambda path: path.write_text(json.dumps({"catalog": "trefoil"})),
         errno.ENOTDIR),
        pytest.param("p.json", getattr(os, "mkfifo", None), errno.ENOTDIR, marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="no named pipes")),
        ("", None, errno.ENOENT),
        ("x" * 300, None, errno.ENAMETOOLONG),
    ], ids=["missing", "file", "fifo", "empty", "too-long"])
    def test_unreadable_batch_path_reads_like_any_failed_read(self, tmp_path, capsys,
                                                              name, make, error):
        # listing is the only directory check, so a FIFO is never opened and cannot block
        path = str(tmp_path / name) if name else ""
        if make is not None:
            make(tmp_path / name)
        with time_limit(5.0):
            assert run_cli("invariants", "--batch", path) == (3, "")
        err = capsys.readouterr().err
        assert err == f"parse error: cannot read {path!r}: {os.strerror(error)}\n"

    @pytest.mark.parametrize("argv", [
        ["braid", "--strands", "x", "1"],  # not an integer
        ["invariants", "--nope"],  # unknown option
        ["nosuch"],  # unknown subcommand
        [],  # no subcommand
        ["braid", "1"],  # missing --strands
        ["obstruct"],  # missing knot
        ["invariants", "[[1,1],[0,1]]", "--js"],  # a prefix is not the option
        ["snf", "[[2]]", "--fu"],
        ["braid", "1", "1", "1", "--str", "2"],
        ["braid", "1", "--strands", "2", "--strands", "3"],  # a value option twice
        ["invariants", "--batch", "a", "--batch", "b"],
        ["snf", "--file", "a.json", "--file", "b.json"],
        ["alink", "--file", "a.json", "--file", "a.json"],
        # a word that no option or argument of the subcommand takes
        ["braid", "1", "1", "1", "--strands", "2", "-x"],
        ["braid", "1", "1", "1", "--strands", "2", "--jso"],
        ["braid", "1", "1", "1", "--strands2"],
        ["braid", "1", "1", "1", "--strands", "2", "--json=1"],  # a flag takes no value
        ["invariants", "trefoil", "--js"], ["invariants", "trefoil", "--batch"],
        ["obstruct", "trefoil", "-1x"], ["snf", "[[2]]", "--file"], ["alink", "(2,4)", "--fil=x"],
        ["invariants", "trefoil", "--json", "figure8"],  # an option hides no extra argument
        ["snf", "[[2]]", "--full", "[[3]]"],
        ["invariants", "trefoil", "figure8"], ["snf", "[[2]]", "[[3]]"],
        # a value option twice, with or without "="
        ["braid", "1", "1", "1", "--strands=2", "--strands", "2"],
        ["braid", "1", "1", "1", "--strands", "2", "--strands=2"],
        ["snf", "--file=a.json", "--file=a.json"],
    ])
    def test_usage_error_is_parse_error(self, capsys, argv):
        assert run_cli(*argv) == (3, "")
        assert capsys.readouterr().err.startswith("parse error: ribbonmu")

    @pytest.mark.parametrize("argv", [
        ["invariants", "trefoil", "--batch", "{dir}"],
        ["snf", "[[2]]", "--file", "{file}"],
        ["alink", "(2,4)", "--file", "{file}"],
        ["invariants"], ["snf"], ["alink"],  # neither input
        ["invariants", "--batch", ""],  # "" names no directory, not "."
        ["snf", "--file", ""], ["alink", "--file", ""],  # nor a file
    ])
    def test_one_input_exactly(self, tmp_path, capsys, argv):
        (tmp_path / "m.json").write_text("[[2, 0], [0, 3]]")
        (tmp_path / "knots").mkdir()
        (tmp_path / "knots" / "k.json").write_text('{"catalog": "figure8"}')
        argv = [a.format(dir=tmp_path / "knots", file=tmp_path / "m.json") for a in argv]
        assert run_cli(*argv) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        if "" in argv:  # the name as given, not the "." that pathlib makes of it
            assert "''" in err and "'.'" not in err and "Errno" not in err

    def test_bare_value_error_is_a_bug_not_bad_input(self, monkeypatch):
        # e.g. _core_mod_det's "wrong determinant": the kernel is at fault
        def broken(matrix, det=None):
            raise ValueError("wrong determinant")

        monkeypatch.setattr(cli, "cokernel_invariants", broken)
        with pytest.raises(ValueError, match="wrong determinant"):
            run_cli("snf", "[[2,4],[6,8]]")

    def test_walk_finds_the_package_errors(self):
        names = {c.__name__ for c in package_error_classes()}
        assert names >= {"CatalogError", "ClassificationError", "CliParseError",
                         "DimensionError", "DoublingHypothesisError", "FormError",
                         "NotAKnotError", "SeifertValidationError", "SpinStructureError"}

    @pytest.mark.parametrize("error", package_error_classes(), ids=lambda c: c.__name__)
    def test_every_package_error_keeps_the_contract(self, capsys, monkeypatch, error):
        # a new error class keeps exit 2 (3 for a parse error) with no
        # table to add it to, because it derives from InputError
        def broken(matrix, det=None):
            raise error("boom")

        monkeypatch.setattr(cli, "cokernel_invariants", broken)
        parse = issubclass(error, cli.CliParseError)
        assert issubclass(error, exactla.InputError)
        assert run_cli("snf", "[[2,4],[6,8]]") == (3 if parse else 2, "")
        assert capsys.readouterr().err == f"{'parse error' if parse else 'error'}: boom\n"

    @pytest.mark.parametrize("argv", [["--strands", "0", "1"], ["--strands", "-3", "1"],
                                      ["--strands", "2", "5"], ["--strands", "3", "0"]])
    def test_bad_braid_word_is_validation_error(self, capsys, argv):
        assert run_cli("braid", *argv) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")


class TestArgvGrammar:
    """How words are read: which ones are arguments, how options take values."""

    @pytest.mark.parametrize("argv, mu", [
        (["-1", "-1", "-1", "--strands", "2"], "14"),  # negative integers, before the option
        (["--strands", "3", "-1 2 -1 2"], "0"),  # a word holding a space
        (["--strands", "2", "--", "-1", "-1", "-1"], "14"),  # every word after "--"
    ], ids=["negative", "spaced", "after --"])
    def test_word_starting_with_a_dash_is_an_argument(self, argv, mu):
        assert run_json("braid", "--json", *argv)["mu"] == mu

    def test_options_anywhere_among_the_arguments(self, tmp_path):
        """Each option, with its value, at every place among the arguments reads as the canonical
        order: arguments first, in order, then the options."""
        path = tmp_path / "with space" / "m.json"
        path.parent.mkdir()
        path.write_text("[[2, 4], [6, 8]]")
        rng = random.Random(35)
        valid = [  # subcommand, its arguments, its options with their values
            ("invariants", ["trefoil"], [["--json"]]),
            ("obstruct", ["trefoil", "figure8"], [["--json"]]),
            ("snf", ["[[2,4],[6,8]]"], [["--full"], ["--json"]]),
            ("snf", [], [["--file", str(path)], ["--full"], ["--json"]]),
            ("alink", ["(2,4)"], [["--json"]]),
            ("braid", [str(rng.choice([-1, 1])) for _ in range(5)], [["--strands=2"], ["--json"]]),
            ("braid", ["-1", "-1", "-1"], [["--strands", "2"], ["--json"]]),
        ]
        for command, arguments, options in valid:
            expected = run_cli(command, *arguments, *(w for o in options for w in o))
            assert expected[0] == 0 and expected[1]
            n = len(arguments) + len(options)
            for slots in itertools.permutations(range(n), len(options)):  # option i at slots[i]
                words = iter(arguments)
                argv = [w for i in range(n)
                        for w in (options[slots.index(i)] if i in slots else [next(words)])]
                assert run_cli(command, *argv) == expected, argv

    def test_missing_argument_is_named_by_its_name(self, capsys):
        assert run_cli("braid", "--strands", "2") == (3, "")
        assert capsys.readouterr().err == \
            "parse error: ribbonmu braid: the following arguments are required: letters\n"

    @pytest.mark.parametrize("argv", [
        ["braid", "1", "1", "1", "--strands", "{strands}"], ["snf", "--file", "{matrix}"],
        ["alink", "--file", "{map}"], ["invariants", "--batch", "{knots}"],
    ], ids=["strands", "snf", "alink", "batch"])
    @pytest.mark.parametrize("folder", ["plain", "with space"])
    def test_value_after_equals_sign(self, tmp_path, argv, folder):
        """"--opt=value" reads as "--opt value", also when the value holds a space."""
        base = tmp_path / folder
        (base / "knots").mkdir(parents=True)
        (base / "m.json").write_text("[[2, 4], [6, 8]]")
        (base / "map.json").write_text("[[3], [0]]")
        (base / "knots" / "k.json").write_text('{"catalog": "figure8"}')
        spaced = [a.format(strands=2, matrix=base / "m.json", map=base / "map.json",
                           knots=base / "knots") for a in argv]
        joined = spaced[:-2] + [f"{spaced[-2]}={spaced[-1]}"]
        code, text = run_cli(*joined, "--json")
        assert code == 0 and text
        assert (code, text) == run_cli(*spaced, "--json")

    def test_flag_twice_is_accepted(self):
        assert run_cli("invariants", "trefoil", "--json", "--json") == \
            run_cli("invariants", "trefoil", "--json")
        assert run_cli("snf", "[[2]]", "--full", "--full")[0] == 0

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_after_other_arguments(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("braid", "1", "1", "1", "--strands", "2", flag)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert "--strands" in out and err == ""

    @pytest.mark.parametrize("argv, names", [
        (["--help"], ["invariants", "obstruct", "snf", "alink", "braid"]),
        (["-h"], ["invariants", "obstruct", "snf", "alink", "braid"]),
        (["invariants", "--help"], ["knot", "--batch", "--json"]),
        (["obstruct", "--help"], ["first", "second", "--json"]),
        (["snf", "--help"], ["matrix", "--file", "--full", "--json"]),
        (["alink", "--help"], ["matrix", "--file", "--json"]),
        (["braid", "--help"], ["letters", "--strands", "--json"]),
    ], ids=["--help", "-h", "invariants", "obstruct", "snf", "alink", "braid"])
    def test_help_names_every_option(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and all(name in out for name in names)


class TestHardToFactorOrders:
    """S = [[1,1],[0,B]] has form [[2,1],[1,2B]] and cover order 4B - 1 = p*q.

    With p and q prime and large, no factorization finishes; the verdict
    must not need one.
    """

    @pytest.mark.parametrize("p, q", [
        (100000000000000000129, 300000000000000000139),
        (20000000000000000000000000000000000000000000000041,
         60000000000000000000000000000000000000000000000079),
    ], ids=["41-digit", "100-digit"])
    def test_semiprime_cover_order(self, one_second, p, q):
        order = p * q
        inline = f"[[1,1],[0,{(order + 1) // 4}]]"
        record = run_json("invariants", inline, "--json")
        assert record["h1_invariant_factors"] == [str(order)]
        assert record["h1_is_double"] is False
        # Z_pq + Z_pq is a double, so the torsion test passes
        verdict = run_json("obstruct", inline, inline, "--json")
        assert verdict["conclusion"] == "no-obstruction-found"


class TestDigitLimit:
    """Entries beyond Python's 4300-digit int <-> str limit travel exactly.

    The form [[2, 1], [1, 2b]] with the 5000-digit b = 5 * 10**4999 is
    even and positive definite, with determinant 4b - 1 = 2 * 10**5000 - 1.
    Every number is handled as a string here, so the test itself stays
    under the limit.
    """

    TWO_B = "1" + "0" * 5000
    DET = "1" + "9" * 5000

    @pytest.fixture(autouse=True)
    def limit_restored(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        yield
        assert limit() == before  # main() lifts it only while it runs

    def test_knot_file(self, tmp_path, one_second):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"even_form": [["2", "1"], ["1", self.TWO_B]]}))
        record = run_json("invariants", str(path), "--json")
        assert record["signature"] == "2"
        assert record["form_determinant"] == self.DET
        assert record["h1_invariant_factors"] == [self.DET]

    def test_inline_snf(self, one_second):
        matrix = json.dumps([["2", "1"], ["1", self.TWO_B]])
        assert run_json("snf", matrix, "--json")["d"] == [["1", "0"], ["0", self.DET]]


class TestEachFactOnce:
    """One invariants record eliminates each matrix once, and only as needed:
    the symmetric pass once per form, and a Smith reduction only for a cover
    group that the pass's D_{n-1} does not certify cyclic, gcd(D_{n-1}, det) > 1."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log: dict[str, list] = {"pass": [], "det": [], "smith": []}

        def counted(key, fn):
            def wrapper(*args):
                log[key].append(args)
                return fn(*args)
            return wrapper

        # the pass is the fold over the symmetric pivots that the records call
        for key, name in (("pass", "_symmetric_fold"), ("det", "determinant")):
            original = getattr(exactla, name)
            for mod in (exactla, spinmu, braid, cli):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted(key, original))
        monkeypatch.setattr(exactla, "_smith_diagonal",
                            counted("smith", exactla._smith_diagonal))
        return log

    def test_braid_knot_record(self, tmp_path, calls):
        letters = [1, 1, -2, 1, 3, -2, 3, 1, -2, 1, 3, 3, -2]
        path = tmp_path / "knot.json"
        path.write_text(json.dumps({"braid": {"strands": 4, "letters": letters}}))
        record = run_json("invariants", str(path), "--json")
        form = from_decimal_rows(record["form"])
        assert form.rows >= 4
        assert record["signature"] == str(charpoly_signature(form))
        assert [args[0] for args in calls["pass"]] == [form]
        # D_9 = -328 and det -489 are coprime: the pass certifies Z489
        assert record["h1_invariant_factors"] == ["489"] == list(
            map(str, cokernel_oracle(form)[1]))
        assert calls["smith"] == []
        assert calls["det"] == []  # a braid's S is not re-validated

    def test_uncertified_braid_knot_record(self, tmp_path, calls):
        path = tmp_path / "knot.json"
        path.write_text(json.dumps({"braid": {"strands": 4, "letters": [3, 1, 3, 3, 1, 1, 2]}}))
        record = run_json("invariants", str(path), "--json")
        form = from_decimal_rows(record["form"])
        assert [args[0] for args in calls["pass"]] == [form]
        assert record["form_determinant"] == "9"  # and D_{n-1} = 6: no certificate
        assert record["h1_invariant_factors"] == ["3", "3"]
        [(m, det)] = calls["smith"]
        assert len(m) == form.rows and all(len(r) == form.rows for r in m)  # no U or V
        assert det == 9
        assert calls["det"] == []

    def test_inline_seifert_matrix_is_validated_once(self, calls):
        code, _ = run_cli("invariants", "[[1, 1], [0, 1]]", "--json")
        assert code == 0
        [(skew,)] = calls["det"]  # det(S - S^t) of the user's matrix
        assert skew == IntMatrix.from_rows([[0, 1], [-1, 0]])
        assert len(calls["pass"]) == 1
        assert calls["smith"] == []  # S + S^t = [[2, 1], [1, 2]]: D_1 = 2, det 3, Z3

    @pytest.mark.parametrize("argv", [
        [str(LONG_BRAID)], ["trefoil", "figure8"], ["poincare", "unknot"]])
    def test_verdict_by_mu_runs_no_smith(self, calls, argv):
        assert run_json("obstruct", *argv, "--json")["conclusion"] == "obstructed-by-mu"
        assert len(calls["pass"]) == 2
        assert calls["smith"] == []

    @pytest.mark.parametrize("argv", [
        ["figure8"], ["trefoil", "trefoil"], ["[[3, 2], [1, 3]]", "trefoil"]])
    def test_verdict_past_mu_runs_smith_once_per_knot(self, calls, argv):
        # Smith runs once for each knot whose group the pass leaves uncertified: only
        # [[3, 2], [1, 3]], whose form [[6, 3], [3, 6]] has D_1 = 6, det 27 and cover Z3 + Z9.
        record = run_json("obstruct", *argv, "--json")
        assert record["conclusion"] != "obstructed-by-mu"
        assert len(calls["pass"]) == 2
        assert len(calls["smith"]) == argv.count("[[3, 2], [1, 3]]")

    def test_dense_even_form_record(self, tmp_path, calls):
        # P^t B P: even, dense, det -15 * 11 * 3 * 27, cover Z3 + Z3 + Z1485
        blocks = [IntMatrix.from_rows(rows) for rows in (
            [[2, 1], [1, 8]], [[-2, 1], [1, -6]], [[0, 1], [1, 0]],
            [[2, 1], [1, 2]], [[2, 1], [1, 14]])]
        base = block_diag(braid.E8, *blocks)
        p = rand_unimodular(random.Random(40), base.rows, steps=6 * base.rows)
        form = matmul(p.transpose(), base, p)
        assert sum(1 for row in form.entries for x in row if x) > form.rows ** 2 // 2
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"even_form": to_decimal_rows(form)}))
        record = run_json("invariants", str(path), "--json")
        assert record["form_determinant"] == str(-15 * 11 * 3 * 27)
        assert record["h1_invariant_factors"] == ["3", "3", "1485"]
        [(pass_form,)] = calls["pass"]
        assert pass_form == form
        assert calls["det"] == []
        [(m, det)] = calls["smith"]  # given the symmetric pass's determinant
        assert len(m) == form.rows and all(len(r) == form.rows for r in m)
        assert det == -15 * 11 * 3 * 27


NONZERO = st.one_of(st.sampled_from([1, -1]),
                    st.integers(-10 ** 30, 10 ** 30).filter(bool),
                    # 4401 digits: past the 4300-digit limit
                    st.sampled_from([10 ** 4400 + 1, -7 * 10 ** 4400 - 3]))


@st.composite
def wire_matrices(draw):
    """Shapes 0 x 0, 0 x c and r x 0 included; rows all zero, all nonzero
    or mixed; or wide rows that are mostly zeros, as in a braid's form: up
    to 64 columns with 0 to 3 nonzero entries, zeros at both ends."""
    rows = draw(st.integers(0, 5))
    if draw(st.booleans()):
        cols = draw(st.integers(0, 64))
        body = [[0] * cols for _ in range(rows)]
        for row in body:
            for j in draw(st.lists(st.integers(1, cols - 2), max_size=3)) if cols > 2 else ():
                row[j] = draw(NONZERO)
        return IntMatrix.from_rows(body, cols=cols)
    cols = draw(st.integers(0, 24))
    body = []
    for _ in range(rows):
        entry = draw(st.sampled_from([st.just(0), NONZERO, st.one_of(st.just(0), NONZERO)]))
        body.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return IntMatrix.from_rows(body, cols=cols)


def write_matrix(m: IntMatrix) -> str:
    out = io.StringIO()
    cli._write_json({"m": m}, out)
    return out.getvalue()


class TestSerialization:
    """The wire format: ``cli._write_json`` writes a matrix as rows of
    decimal strings, and ``cli._matrix_from_json`` reads them back."""

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(m=wire_matrices())
    def test_written_rows_match_json_dumps(self, m):
        with digit_limit_lifted():
            text = write_matrix(m)
            assert text == json.dumps({"m": to_decimal_rows(m)}) + "\n"
            back = cli._matrix_from_json(json.loads(text)["m"])
        # no rows carry no column count: a 0 x c matrix reads back as 0 x 0
        assert back == (m if m.rows else IntMatrix.empty())


class TestJsonWire:
    """``--json`` writes exactly ``json.dumps(record)`` and a newline,
    with every matrix streamed row by row."""

    @pytest.mark.parametrize("matrix", [
        IntMatrix.empty(), IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())),
        zeros(3, 5), IntMatrix.from_rows([[0, 1, 0, 0, 0, 0, 0, -1]]),
        IntMatrix.from_rows([[10 ** 4400 + 1, 0], [0, -2]]),
    ], ids=["0x0", "0x3", "2x0", "zero", "sparse", "beyond-digit-limit"])
    def test_record_matches_json_dumps(self, matrix):
        record = {"name": "\u00e9\"", "m": matrix, "list": ["1"], "none": None,
                  "flag": True}
        out = io.StringIO()
        with digit_limit_lifted():
            cli._write_json(record, out)
            plain = dict(record, m=to_decimal_rows(matrix))
            assert out.getvalue() == json.dumps(plain) + "\n"

    def test_empty_record(self):
        out = io.StringIO()
        cli._write_json({}, out)
        assert out.getvalue() == "{}\n"

    def test_every_subcommand(self, tmp_path):
        (tmp_path / "braid.json").write_text(json.dumps(
            {"braid": {"strands": 3, "letters": [1, -2, 1, -2]}}))
        (tmp_path / "form.json").write_text(json.dumps(
            {"even_form": [["2", "1"], ["1", "2"]]}))
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "a.json").write_text(json.dumps({"catalog": "trefoil"}))
        (batch / "b.json").write_text('{"braid": ')
        runs = [
            ("invariants", "poincare", "--json"),
            ("invariants", str(tmp_path / "braid.json"), "--json"),
            ("invariants", "[[1,1],[0,-1]]", "--json"),
            ("invariants", str(tmp_path / "form.json"), "--json"),
            ("obstruct", "figure8", "--json"),
            ("snf", "[[2,4],[6,8]]", "--json"),
            ("snf", "[[1,2,3],[4,5,6]]", "--json"),
            ("snf", "[[2,4],[6,8]]", "--full", "--json"),
            ("snf", "[]", "--full", "--json"),
            ("alink", "(2,4)", "--json"),
            ("braid", "--strands", "2", "1", "1", "1", "--json"),
            ("invariants", "--batch", str(batch)),
        ]
        for argv in runs:
            code, text = run_cli(*argv)
            assert code in (0, 3) and text.endswith("\n"), argv
            for line in text.splitlines():
                assert json.dumps(json.loads(line)) == line, argv
        assert len(text.splitlines()) == 2  # the batch: one good, one failing file

    def test_long_braid_record_is_written_row_by_row(self, tmp_path):
        word = knot_word(random.Random(296), 6, 301)  # a 296-row form
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"braid": {"strands": 6, "letters": list(word.letters)}}))

        class Spy:
            def __init__(self):
                self.pieces = []

            def write(self, text):
                self.pieces.append(text)

        spy = Spy()
        assert main(["invariants", str(path), "--json"], out=spy) == 0
        text = "".join(spy.pieces)
        record = json.loads(text)
        assert json.dumps(record) + "\n" == text
        s = seifert_matrix_from_braid(word).matrix
        assert len(record["form"]) == s.rows == 296
        longest_row = max(len(json.dumps(r)) for m in (matadd(s, s.transpose()), s)
                          for r in to_decimal_rows(m))
        assert max(map(len, spy.pieces)) <= len(', "seifert_matrix": [') + longest_row


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = run_module("invariants", "trefoil", "--json", text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mu"] == "2"

    def test_exit_codes_via_subprocess(self):
        proc = run_module("snf", "[[oops", text=True)
        assert proc.returncode == 3

    def test_knot_file_is_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"name": "Poincar\u00e9", "catalog": "poincare"}', encoding="utf-8")
        proc = run_module("invariants", path, "--json", env=ascii_locale_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["name"] == "Poincar\u00e9"

    def test_text_output_in_an_ascii_locale(self):
        proc = run_module("invariants", TWO_TREFOILS, env=ascii_locale_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"H1(Seifert hypersurface) = Z3 \\u2295 Z3\n" in proc.stdout

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX pipe semantics")
    def test_closed_stdout_exits_141(self):
        # The reader keeps 20 bytes of a 14 MB record and closes the pipe.
        # Leaving the with block closes both pipes and reaps the child.
        with subprocess.Popen(
                [sys.executable, "-m", "ribbonmu", "invariants", str(LONG_BRAID), "--json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env()) as proc:
            try:
                head = proc.stdout.read(20)
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
        assert head == b'{"name": "braid6_120'
        assert (code, err) == (141, b"")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="closes fd 1 in the child")
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_stdout_closed_at_start_exits_141(self, flags):
        # Python starts with sys.stdout None; an error found before any
        # output keeps its own status
        def run(*argv):
            proc = run_module(*argv, *flags, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              preexec_fn=lambda: os.close(1))
            return proc.returncode, proc.stderr
        assert run("invariants", "trefoil") == (141, b"")
        code, err = run("invariants", "nosuchknot")
        assert code == 2 and err.startswith(b"error: unknown catalog entry")

    def test_startup_stays_lean(self):
        # dataclasses and the inspect module it imports cost a fresh
        # interpreter about 30 ms, which every CLI op pays; argparse with
        # gettext about 6 ms (import and parser); typing and pathlib (it
        # loads urllib.parse and ipaddress) a few ms more each.
        # -S: no site hook may have loaded one of them already
        script = ("import sys; before = set(sys.modules); import ribbonmu.cli; "
                  "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect', 'pathlib', "
                  "'typing'} & (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, env=package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_point_freezes_the_heap_once(self, monkeypatch, capsys):
        # the spy also keeps this test process's heap unfrozen
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(None))
        monkeypatch.setattr(sys, "argv", ["ribbonmu", "invariants", "trefoil"])
        with pytest.raises(SystemExit) as exit_:
            cli.entry_point()
        assert (exit_.value.code, len(calls)) == (0, 1)
        assert capsys.readouterr().out.startswith("name: trefoil")

    def test_heap_is_frozen_at_exit(self):
        script = ("import atexit, gc, sys; "
                  "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
                  "sys.argv = ['ribbonmu', 'invariants', 'trefoil', '--json']; "
                  "from ribbonmu.cli import entry_point; entry_point()")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["name"] == "trefoil"
        assert int(proc.stderr) > 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes to /dev/full")
    @pytest.mark.parametrize("argv", [["invariants", "trefoil", "--json"], ["--help"],
                                      ["invariants", str(LONG_BRAID), "--json"]],
                             ids=["record", "help", "long-record"])
    def test_output_that_cannot_be_written_exits_2(self, argv):
        with open("/dev/full", "w") as full:
            proc = run_module(*argv, stdout=full, stderr=subprocess.PIPE)
        line = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()
        assert (proc.returncode, proc.stderr) == (2, line)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes to /dev/full")
    @pytest.mark.parametrize("knot, code", [("nosuchknot", 2), ("[1", 3)])
    def test_error_line_that_stderr_cannot_take_is_dropped(self, knot, code):
        with open("/dev/full", "w") as full:
            proc = run_module("invariants", knot, stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (code, b"")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes to /dev/full")
    def test_write_errors_in_process(self, capsys, monkeypatch):
        # the branches of the two tests above, run where a mutant can reach them
        monkeypatch.setattr(cli.gc, "freeze", lambda: None)
        monkeypatch.setattr(sys, "argv", ["ribbonmu", "invariants", "trefoil", "--json"])
        with open("/dev/full", "w") as full, open("/dev/full", "w") as full_too:
            monkeypatch.setattr(sys, "stdout", full)
            with pytest.raises(SystemExit) as exit_:
                cli.entry_point()
            monkeypatch.setattr(sys, "stderr", full_too)
            assert main(["invariants", "nosuchknot"]) == 2
        assert exit_.value.code == 2
        line = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        assert capsys.readouterr().err == line

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts /proc/self/fd and writes to /dev/full")
    def test_dropped_error_lines_leave_no_descriptor_open(self, monkeypatch):
        def fail_on_full_stderr():
            with open("/dev/full", "w") as full:
                monkeypatch.setattr(sys, "stderr", full)
                assert main(["invariants", "nosuchknot"]) == 2
        fail_on_full_stderr()  # whatever a first run keeps open is counted in both counts
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            fail_on_full_stderr()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX lowest-descriptor rule")
    def test_stream_that_lost_its_descriptor_stays_writable(self):
        # os.open takes the lowest free descriptor, here the one the stream lost
        fd = os.open(os.devnull, os.O_WRONLY)
        with open(fd, "w") as stream:
            os.close(fd)
            cli._to_null_device(stream)
            print("dropped", file=stream, flush=True)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="closes fd 2 in the child")
    def test_stderr_closed_at_start_keeps_errors_out_of_stdout(self, tmp_path):
        # Python starts with sys.stderr None, and print(file=None) writes to stdout
        def run(*argv):
            proc = run_module("invariants", *argv, preexec_fn=lambda: os.close(2))
            return proc.returncode, proc.stdout
        assert run("nosuchknot") == (2, b"")
        (tmp_path / "a.json").write_text(json.dumps({"catalog": "trefoil"}))
        (tmp_path / "b.json").write_text("[1")
        code, out = run("--batch", str(tmp_path))
        records = [json.loads(line) for line in out.splitlines()]
        assert (code, [r["name"] for r in records], records[1]["exit"]) == (3, ["a", "b.json"], 3)


def write_too_large_braid(path: Path) -> Path:
    """A seeded 5001-letter 6-strand knot word: its 4996-row Seifert
    matrix, built as lists of ints, takes about 200 MB of pointers."""
    word = knot_word(random.Random(2), 6, 5001)
    path.write_text(json.dumps({"braid": {"strands": 6, "letters": list(word.letters)}}))
    return path


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS as Linux enforces it")
class TestOutOfMemory:
    # An input too large for memory is bad input: exit 2 and one line on
    # stderr, never exit 1 with a traceback.
    def run(self, *argv):
        return run_module(*argv, preexec_fn=address_space_cap(150_000))

    @pytest.mark.parametrize("command", ["invariants", "obstruct"])
    def test_exits_2(self, tmp_path, command):
        proc = self.run(command, write_too_large_braid(tmp_path / "huge.json"), "--json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")

    def test_batch_goes_on_to_the_next_file(self, tmp_path):
        write_too_large_braid(tmp_path / "huge.json")
        (tmp_path / "trefoil.json").write_text(json.dumps({"catalog": "trefoil"}))
        proc = self.run("invariants", "--batch", tmp_path)
        assert (proc.returncode, proc.stderr) == (2, b"2 files, 1 failed\n")
        first, second = map(json.loads, proc.stdout.splitlines())
        assert first == {"name": "huge.json", "error": "out of memory", "exit": 2}
        assert (second["name"], second["mu"]) == ("trefoil", "2")


def ascii_locale_env() -> dict[str, str]:
    """A fresh interpreter whose locale encoding is ASCII (no UTF-8 mode)."""
    return dict(package_env(), LC_ALL="C", PYTHONUTF8="0")


def matrix_argv(route: str, matrix: list, tmp_path: Path) -> list[str]:
    """The command line that reads ``matrix`` through the given route."""
    if route in ("snf", "inline-knot"):
        return ["snf" if route == "snf" else "invariants", json.dumps(matrix)]
    path = tmp_path / "knot.json"
    path.write_text(json.dumps({route: matrix}))
    return ["invariants", str(path)]


class TestDecimalEntries:
    """A matrix entry is a JSON integer (not true/false) or an ASCII
    decimal string -?[0-9]+, on every route that reads one."""

    ROUTES = ["snf", "inline-knot", "seifert_matrix", "even_form"]

    @staticmethod
    def matrix(route: str, entry) -> list:
        # with any integer entry: a valid Seifert matrix (S - S^t is
        # fixed); with an even one, an even form of odd determinant
        if route in ("inline-knot", "seifert_matrix"):
            return [[1, 1], [0, entry]]
        return [[2, "1"], ["1", entry]]

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("entry", [
        "1_0", " 2", "2 ", "+2", "\u0662", "2\n", "", "-", "--2", "0x2", "2.0",
        True, False, 2.0, None, [2], {"2": 2}, "9" * 100 + "x"], ids=lambda e: repr(e)[:16])
    def test_anything_else_is_a_parse_error(self, tmp_path, capsys, route, entry):
        argv = matrix_argv(route, self.matrix(route, entry), tmp_path)
        assert run_cli(*argv) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "bad matrix entry [1][1]" in err
        assert len(err) < 200

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("entry", [2, "2", "002", "-0", "-006"], ids=repr)
    def test_integers_and_decimal_strings_are_read(self, tmp_path, route, entry):
        argv = matrix_argv(route, self.matrix(route, entry), tmp_path)
        assert run_cli(*argv, "--json")[0] == 0


# The package's public names: paper content (mu and cover torsion, both
# read off TwoKnotInvariants; doubling, the combiner, alinking, the
# verdicts) and the exact kernel.
PUBLIC_NAMES = [
    "BraidWord", "CatalogError", "ClassificationError", "Conclusion", "DimensionError",
    "DoublingHypothesisError", "E8", "FiniteAbelianGroup", "FormError", "InducedMap",
    "InputError", "IntMatrix", "Mu", "NotAKnotError", "SeifertMatrix",
    "SeifertValidationError", "SnfResult", "SpinStructureError", "TwoKnotInvariants",
    "Verdict", "alinking", "catalog", "cokernel_invariants",
    "combine_doubles", "determinant", "direct_sum", "from_presentation",
    "intersection_form", "is_double", "mod2_alinking", "mu_boundary_link_sum",
    "obstruct_ribbon_equivalent", "obstruct_ribbon_trivial", "seifert_matrix_from_braid",
    "signature_and_determinant", "smith_normal_form", "validate_seifert",
]


def test_public_names_are_the_documented_ones():
    assert sorted(ribbonmu.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(ribbonmu.__all__)) == len(ribbonmu.__all__)
    for name in ribbonmu.__all__:
        assert getattr(ribbonmu, name) is not None, name
