"""Hand mutation checks: each listed mutant must fail the tier-1 tests named for it.

A mutant is (function, old text, new text, node ids).  Its old text, found exactly once in the
function's source, becomes the new text; the function's ``__code__`` is swapped for that of the
changed source, so every alias of the function runs the mutant.  The node ids run with
``pytest.main`` and must fail; the function is then restored.  Before any mutant, the node ids
must pass on the unchanged code.  Run from the repository root:

    PYTHONPATH=src python tests/mutants.py

It exits 1 if any mutant survives.  pytest does not collect this file; it is no part of tier-1.
"""

import inspect
import sys
import textwrap
import time
from pathlib import Path

import pytest

from ribbonmu import abelian, alink, braid, cli, exactla, spinmu

import support

TESTS = Path(__file__).resolve().parent
# the benchmark's seed-1 ops against their digests
GOLDEN = "test_golden.py::test_seed1_ops_match_their_digests"
# the signature's random sweep against the oracle
C05 = "test_acceptance.py::test_c05_signature_oracle_equivalence"

MUTANTS = [
    (exactla.determinant, "                    sign = -sign\n", "",
     ["test_exactla.py::TestDeterminant::test_random_against_cofactor"]),
    (exactla.determinant, "        _catch_up(pivot_row, k, e, exact[k], prev)\n", "",
     ["test_exactla.py::TestDeterminant::test_random_against_cofactor"]),
    (exactla._symmetric_fold, "(p > 0) == (prev > 0)", "p > 0",
     [C05, GOLDEN]),
    # the cover group's certificate: the fold keeps D_{n-2} in place of D_{n-1}, or the
    # certificate accepts gcd(D_{n-1}, det) <= 3
    (exactla._symmetric_fold,
     "    sig, det, minor, prev = 0, 1, 1, 1\n"
     "    for p in _symmetric_pivots(form.to_lists()):\n"
     "        det = det and p  # the last pivot, and 0 from the first null variable on\n"
     "        if p:\n"
     "            sig += 1 if (p > 0) == (prev > 0) else -1\n"
     "            minor, prev = prev, p\n",
     "    sig, det, minor, prev, later = 0, 1, 1, 1, 1\n"
     "    for p in _symmetric_pivots(form.to_lists()):\n"
     "        det = det and p  # the last pivot, and 0 from the first null variable on\n"
     "        if p:\n"
     "            sig += 1 if (p > 0) == (prev > 0) else -1\n"
     "            minor, later, prev = later, prev, p\n",
     ["test_spinmu.py::TestCoverGroupCertificate::test_against_cokernel_oracle"]),
    (exactla.cokernel_invariants, "math.gcd(minor, det) == 1", "math.gcd(minor, det) <= 3",
     ["test_spinmu.py::TestCoverGroupCertificate::test_against_cokernel_oracle",
      "test_cli.py::TestEachFactOnce::test_uncertified_braid_knot_record"]),
    (exactla._symmetric_pivots, "c = -1 if d == -2 * a else 1", "c = 1",
     ["test_exactla.py::TestSignatureAndDeterminant", GOLDEN]),
    # the symmetric pass: a null variable yields the last pivot in place of 0
    (exactla._symmetric_pivots, "yield 0\n", "yield prev\n",
     ["test_exactla.py::TestSignatureAndDeterminant::test_pivots_are_leading_minors"]),
    (exactla._smith_diagonal, "units = len(m) - len(core)",
     "units = len(m) - len(core) - bool(core)",
     ["test_exactla.py::TestDiagonalOnlySmith", GOLDEN]),
    (exactla._core_mod_det, "d = math.gcd(p, R)", "d = math.gcd(p * p, R)",
     ["test_exactla.py::TestSmithModuloDeterminant", GOLDEN]),
    (exactla._invariant_chain, "d[i] // g * d[j]", "d[i] * d[j]",
     ["test_abelian.py::TestDirectSum", GOLDEN]),
    (exactla._unit_pivots, "q = r[j] * p", "q = r[j]",
     ["test_exactla.py::TestDiagonalOnlySmith", GOLDEN]),
    # the unit phase rescans every live row on each sweep, not only the rows it changed
    (exactla._unit_pivots, "if id(row) not in dirty:", "if False:",
     ["test_exactla.py::TestSparseInput::test_unit_cascade_is_not_cubic"]),
    (exactla._hermite, "if x[c] < 0:", "if False:",
     ["test_exactla.py::TestSmithNormalForm", GOLDEN]),
    (exactla._xgcd, "(-a, -s, -t)", "(-a, s, t)",
     ["test_exactla.py::TestSmithNormalForm", GOLDEN]),
    (braid.seifert_matrix_from_braid, "v[a][a] = (sign(word[i]) + sign(letter)) // 2",
     "v[a][a] = sign(letter)",
     ["test_braid.py::TestAgainstPairwiseOracle::test_random_words", GOLDEN]),
    (braid.seifert_matrix_from_braid, "if letter > 0:\n                    v[b][a] = -1",
     "if letter > 0:\n                    v[a][b] = -1",
     ["test_braid.py::TestSeifertMatrixFromBraid::test_every_braid_matrix_is_valid", GOLDEN]),
    (braid.seifert_matrix_from_braid, "if g > h:\n                        v[b][a] = -1",
     "if g > h:\n                        v[a][b] = -1",
     ["test_braid.py::TestAgainstPairwiseOracle::test_random_words", GOLDEN]),
    # the argv reader: the run rule put back, "--" read as an option, a value option twice
    (cli._parse, "elif (metavar := options.get(option)) is None or equals and not metavar:",
     "elif (room := len(words) or room) and ((metavar := options.get(option)) is None\n"
     "                                               or equals and not metavar):",
     ["test_cli.py::TestArgvGrammar::test_options_anywhere_among_the_arguments"]),
    (cli._parse, 'elif word in ("--", "-h", "--help"):', 'elif word in ("-h", "--help"):',
     ["test_cli.py::TestArgvGrammar::test_word_starting_with_a_dash_is_an_argument"]),
    (cli._parse, "elif metavar and fields[option[2:]] is not None:", "elif False:",
     ["test_cli.py::TestExitContract::test_usage_error_is_parse_error"]),
    # the alink column reader: text between or around the columns ignored
    (cli._induced_map, "if leftover or not columns:", "if not columns:",
     ["test_cli.py::TestAlinkCommand::test_one_separator_rule"]),
    # the knot-file reader: --batch names in code-point order, a leading "[" before ".json"
    (cli._batch, ", key=os.fsencode", "",
     ["test_cli.py::TestKnotFiles::test_batch_orders_names_that_are_not_utf8_by_their_bytes"]),
    (cli.resolve_knot, ' and not spec.endswith(".json")', "",
     ["test_cli.py::TestKnotFiles::test_bracketed_name_ending_in_json_is_a_knot_file",
      "test_cli.py::TestKnotFiles::test_batch_directory_starting_with_a_bracket"]),
    # the --batch directory: only a permission error reads as a failed listing
    (cli._batch, "except OSError as exc:", "except PermissionError as exc:",
     ["test_cli.py::TestExitContract::test_unreadable_batch_path_reads_like_any_failed_read"]),
    # the console entry point: no heap freeze; a write error read as a broken pipe only, or
    # an error line that stderr cannot take left to fail
    (cli.entry_point, "gc.freeze()", "",
     ["test_cli.py::TestModuleEntryPoint::test_entry_point_freezes_the_heap_once"]),
    (cli.entry_point, "except OSError as exc:", "except BrokenPipeError as exc:",
     ["test_cli.py::TestModuleEntryPoint::test_write_errors_in_process"]),
    (cli._warn, "except OSError:", "except BrokenPipeError:",
     ["test_cli.py::TestModuleEntryPoint::test_write_errors_in_process"]),
    # the null device: its descriptor left open, or closed when it is the stream's own
    (cli._to_null_device, "        os.close(null)\n", "",
     ["test_cli.py::TestModuleEntryPoint::test_dropped_error_lines_leave_no_descriptor_open"]),
    (cli._to_null_device, "if null != fd:", "if True:",
     ["test_cli.py::TestModuleEntryPoint::test_stream_that_lost_its_descriptor_stays_writable"]),
    # the JSON writer: each run of zeros in a spliced row one entry too long
    (cli._json_row,
     "parts += '\"0\", ' * (j - last), f'\"{row[j]}\", '\n"
     "        last = j + 1\n"
     "    return \"[\" + \"\".join(parts + ['\"0\", ' * (len(row) - last)])",
     "parts += '\"0\", ' * (j - last + 1), f'\"{row[j]}\", '\n"
     "        last = j + 1\n"
     "    return \"[\" + \"\".join(parts + ['\"0\", ' * (len(row) - last + 1)])",
     ["test_cli.py::TestSerialization::test_written_rows_match_json_dumps", GOLDEN]),
    # the JSON writer: a group's invariant factors as JSON integers, not decimal strings
    (cli._write_json, "list(map(str, value.invariant_factors))", "list(value.invariant_factors)",
     ["test_cli.py::TestInvariantsCommand::test_numbers_are_decimal_strings", GOLDEN]),
    # the alinking error: a finite cokernel padded to two cyclic summands again
    (alink.alinking, "{FiniteAbelianGroup(torsion)}",
     "{' + '.join(f'Z/{d}' for d in (1, 1, *torsion)[-2:])}",
     ["test_alink.py::TestAlinking::test_finite_cokernel_is_named_as_its_group"]),
    # paper content whose random sweep lives in an acceptance criterion alone: alinking 0
    # for the free cokernel Z, the combiner halving a + b, the link sum starting at mu 1
    (alink.alinking, "return torsion[0] if torsion else 1", "return torsion[0] if torsion else 0",
     ["test_acceptance.py::test_c10_alinking"]),
    (abelian.combine_doubles, "half = is_double(direct_sum(a, c))",
     "half = is_double(direct_sum(a, b))",
     ["test_acceptance.py::test_c06_doubling_and_combiner_suite"]),
    (spinmu.mu_boundary_link_sum, "Mu(0))", "Mu(1))",
     ["test_acceptance.py::test_c08_additivity"]),
    # the signature oracle: the characteristic polynomial's identity term one step late
    (support.charpoly, "c[n - k + 1]", "c[n - k]",
     ["test_exactla.py::TestSignatureAndDeterminant::"
      "test_charpoly_oracle_against_shifted_determinants", C05]),
    # the signature oracle: p(-x) read with p's own signs, so no root counts as negative
    (support.charpoly_signature, "(-1) ** i * c", "c",
     [C05]),
    # the Smith oracle: the diagonal as the pivots leave it, with no gcd/lcm sweep
    (support.snf_diagonal_oracle, "changed = True\n    while changed:",
     "changed = False\n    while changed:",
     ["test_exactla.py::TestDiagonalOnlySmith"]),
]


def mutated_code(function, old: str, new: str):
    """The code of ``function`` with ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    if old and source.count(old) != 1:
        raise SystemExit(f"{function.__qualname__}: the old text occurs {source.count(old)} times")
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__].__code__


def run(ids: list[str]) -> int:
    return pytest.main(["-q", "-x", "-p", "no:cacheprovider", *(str(TESTS / i) for i in ids)])


def main() -> int:
    start = time.perf_counter()
    ids = sorted({i for *_, kill in MUTANTS for i in kill})
    functions = {function: function.__code__ for function, *_ in MUTANTS}
    for function in functions:  # recompiled unchanged, so the swap itself is checked too
        function.__code__ = mutated_code(function, "", "")
    try:
        if run(ids) != 0:
            raise SystemExit("the listed tests fail on the unchanged code")
    finally:
        for function, code in functions.items():
            function.__code__ = code
    results = []
    for function, old, new, kill in MUTANTS:
        code, began = function.__code__, time.perf_counter()
        function.__code__ = mutated_code(function, old, new)
        try:
            status = run(kill)
        finally:
            function.__code__ = code
        if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
            raise SystemExit(f"{function.__qualname__}: pytest exited {status}")
        change = next((n for o, n in zip(old.splitlines(), new.splitlines()) if o != n),
                      f"without {old.strip()}")
        results.append((status == pytest.ExitCode.TESTS_FAILED, function.__qualname__,
                        change.strip(), time.perf_counter() - began))
    print()
    for killed, name, change, seconds in results:
        print(f"{'killed ' if killed else 'SURVIVED'} {seconds:5.2f} s  {name}: {change}")
    survivors = sum(not killed for killed, *_ in results)
    print(f"{len(results) - survivors} of {len(results)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
