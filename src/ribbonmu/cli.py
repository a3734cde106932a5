"""Command-line interface.

Subcommands: invariants, obstruct, snf, alink, braid.  Knots are given
as catalog names, inline Seifert matrices, or JSON knot files; matrices
travel as arrays of arrays of decimal strings so arbitrary-precision
values survive machine-readable output; ``--json`` writes each record
as exactly ``json.dumps(record)`` and a newline, matrices streamed row
by row.  Exit status is a stable scripting contract: 0 on success
(whatever the verdict), 2 on validation errors, 3 on parse errors, and
141 when standard output is closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Any

from .abelian import FiniteAbelianGroup, is_double
from .alink import ClassificationError, InducedMap, alinking
from .braid import BraidWord, CatalogError, NotAKnotError, catalog, seifert_matrix_from_braid
from .exactla import (DimensionError, FormError, IntMatrix, _diagonal_matrix, _Value,
                      cokernel_invariants, smith_normal_form)
from .obstruct import Verdict, obstruct_ribbon_equivalent, obstruct_ribbon_trivial
from .spinmu import (SeifertMatrix, SeifertValidationError, SpinStructureError,
                     TwoKnotInvariants, validate_seifert)


class CliParseError(Exception):
    """Malformed command-line or file input."""


# The exit contract, one status per error class the commands can reach.
# Any other exception, a bare ValueError included, is a bug and keeps
# its traceback.
EXIT_CODES: dict[type[Exception], int] = {
    CliParseError: 3, CatalogError: 2, ClassificationError: 2, DimensionError: 2,
    FormError: 2, NotAKnotError: 2, SeifertValidationError: 2, SpinStructureError: 2}


def _exit_code(exc: Exception) -> int:
    """Exit status of an instance of an :data:`EXIT_CODES` family."""
    return next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)


class KnotRecord(_Value):
    """A resolved knot input: one source, plus an optional even form.

    Every record carries a Seifert matrix or an even form, or both.

    When an even bounding form is present it is the route to mu and
    cover homology (it is the hypersurface data for the 2-knot itself,
    e.g. for twist spins other than the 2-twist spin); a Seifert matrix
    alone means the 2-twist-spin route.
    """

    name: str
    source: str  # catalog | braid | seifert-matrix | even-form
    seifert: SeifertMatrix | None
    even_form: IntMatrix | None

    def __init__(self, name: str, source: str, seifert: SeifertMatrix | None = None,
                 even_form: IntMatrix | None = None) -> None:
        self._set(name=name, source=source, seifert=seifert, even_form=even_form)

    def invariants(self) -> TwoKnotInvariants:
        if self.even_form is not None:
            return TwoKnotInvariants.from_even_form(self.even_form)
        return TwoKnotInvariants.from_seifert(self.seifert)


def _read_json(source: str | Path) -> Any:
    """Decode inline JSON text (a matrix), or the JSON file at a path."""
    if isinstance(source, Path):
        where = f"{source}:"
        try:
            text = source.read_text()
        except (OSError, UnicodeError) as exc:
            raise CliParseError(f"cannot read {source}: {exc}") from None
    else:
        where, text = "matrix", source
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError(
            f"{where} parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except RecursionError:
        raise CliParseError(f"{where} parse error: nested too deeply") from None


def _matrix_from_json(data: Any) -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise CliParseError("matrix must be an array of arrays")
    try:
        return IntMatrix.from_decimal_rows(data)
    except ValueError as exc:
        raise CliParseError(f"bad matrix: {exc}") from None


def _knot_from_file(path: Path) -> KnotRecord:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise CliParseError(f"{path}: knot file must be a JSON object")
    for key in ("catalog", "name"):
        if key in data and not isinstance(data[key], str):
            raise CliParseError(f"{path}: {key!r} must be a string")
    sources = [k for k in ("catalog", "braid", "seifert_matrix") if k in data]
    even_form = (_matrix_from_json(data["even_form"])
                 if "even_form" in data else None)
    if len(sources) > 1 or (not sources and even_form is None):
        raise CliParseError(
            f"{path}: need one of catalog/braid/seifert_matrix (or an "
            f"even_form), got {sources or 'none'}")
    source, seifert = (sources or ["even_form"])[0], None
    if source == "catalog":
        entry = catalog(data["catalog"])
        seifert = entry.seifert
        even_form = entry.even_form if even_form is None else even_form
    elif source == "braid":
        spec = data["braid"]
        if not isinstance(spec, dict) or "strands" not in spec or "letters" not in spec:
            raise CliParseError(f"{path}: braid needs 'strands' and 'letters'")
        strands, letters = spec["strands"], spec["letters"]
        # type(...) is int: JSON true/false arrive as bool, a subclass of int
        if (type(strands) is not int or not isinstance(letters, list)
                or any(type(x) is not int for x in letters)):
            raise CliParseError(
                f"{path}: braid 'strands' must be an integer and 'letters' "
                "a list of integers")
        seifert = seifert_matrix_from_braid(BraidWord(strands, tuple(letters)))
    elif source == "seifert_matrix":
        seifert = validate_seifert(_matrix_from_json(data["seifert_matrix"]))
    return KnotRecord(name=data.get("name", path.stem),
                      source=source.replace("_", "-"),
                      seifert=seifert, even_form=even_form)


def resolve_knot(spec: str) -> KnotRecord:
    """Catalog name, path to a JSON knot file, or inline Seifert matrix."""
    if spec.startswith("@"):
        return _knot_from_file(Path(spec[1:]))
    if spec.lstrip().startswith("["):
        matrix = _matrix_from_json(_read_json(spec))
        return KnotRecord(name="<inline>", source="seifert-matrix",
                          seifert=validate_seifert(matrix))
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        return _knot_from_file(path)
    entry = catalog(spec)
    return KnotRecord(name=entry.name, source="catalog",
                      seifert=entry.seifert, even_form=entry.even_form)


def _matrix_arg(args) -> IntMatrix:
    """The matrix of ``snf`` and ``alink``: ``--file``, else inline JSON."""
    if not args.file and args.matrix is None:
        raise CliParseError(f"{args.command} needs a matrix argument or --file")
    return _matrix_from_json(_read_json(Path(args.file) if args.file else args.matrix))


_COLUMN_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _induced_map(args) -> InducedMap:
    """Columns "(a,b) (c,d) ..." or a 2-row matrix, inline or from --file."""
    text = args.matrix
    if args.file or text is None or text.lstrip().startswith("["):
        matrix = _matrix_arg(args)
        if matrix.rows != 2:
            raise CliParseError(
                f"induced map needs exactly 2 rows, got {matrix.rows}")
        return InducedMap(matrix)
    columns = [[int(a), int(b)] for a, b in _COLUMN_RE.findall(text)]
    leftover = _COLUMN_RE.sub("", text).strip(" ,;\t\n")
    if leftover or not columns:
        raise CliParseError(
            f"cannot parse induced map from {text!r}; use \"(a,b) (c,d)\" "
            "columns or a JSON 2-row matrix")
    return InducedMap.from_columns(columns)


# -- reports ---------------------------------------------------------

def _invariant_record(knot: KnotRecord) -> dict[str, Any]:
    inv = knot.invariants()
    half = is_double(inv.cover_torsion)
    record: dict[str, Any] = {
        "name": knot.name,
        "source": knot.source,
        "mu": str(inv.mu.value),
        "modulus": "16",
        "signature": str(inv.signature),
        "form_determinant": str(inv.form_determinant),
        "h1_invariant_factors": [str(d) for d in inv.cover_torsion.invariant_factors],
        "h1_is_double": half is not None,
        "h1_double_half": None if half is None else
            [str(d) for d in half.invariant_factors],
        "form": inv.form,
    }
    if knot.seifert is not None:
        record["seifert_matrix"] = knot.seifert.matrix
    return record


def _print_invariant_text(record: dict[str, Any], out) -> None:
    print(f"name: {record['name']}  (source: {record['source']})", file=out)
    print(f"mu = {record['mu']} (mod 16)", file=out)
    print(f"signature = {record['signature']}", file=out)
    print(f"form determinant = {record['form_determinant']}", file=out)
    h1 = FiniteAbelianGroup(record["h1_invariant_factors"])
    print(f"H1(Seifert hypersurface) = {h1}", file=out)
    if record["h1_is_double"]:
        half = FiniteAbelianGroup(record["h1_double_half"])
        print(f"doubling test: passes, half = {half}", file=out)
    else:
        print("doubling test: fails (not of the form G + G)", file=out)


def _verdict_record(verdict: Verdict, names: tuple[str, str]) -> dict[str, Any]:
    return {
        "first": names[0],
        "second": names[1],
        "conclusion": verdict.conclusion.value,
        "rule": verdict.rule,
        "mu_pair": None if verdict.mu_pair is None else
            [str(m.value) for m in verdict.mu_pair],
        "torsion_witness": None if verdict.torsion_witness is None else
            [str(d) for d in verdict.torsion_witness.invariant_factors],
        "explanation": verdict.explanation(),
    }


def _print_verdict_text(record: dict[str, Any], out) -> None:
    print(f"{record['first']} vs {record['second']}:", file=out)
    print(f"conclusion: {record['conclusion']}", file=out)
    print(record["explanation"], file=out)


def _print_alink_text(record: dict[str, Any], out) -> None:
    print(f"alinking = {record['alinking']}", file=out)
    print(f"alinking mod 2 = {record['mod2']}", file=out)


def _write_json(record: dict[str, Any], out) -> None:
    """Write ``json.dumps(record)`` and a newline, piece by piece.

    An :class:`IntMatrix` value is written as its decimal-string rows,
    one row at a time (:meth:`IntMatrix.json_rows`), so neither a list of
    its entries' strings nor the whole record's text is ever built.
    """
    out.write("{")
    sep = ""
    for key, value in record.items():
        prefix, sep = f"{sep}{json.dumps(key)}: ", ", "
        if isinstance(value, IntMatrix):
            rows = value.json_rows()
            out.write(f"{prefix}[{next(rows, '')}")
            for row in rows:
                out.write(", " + row)
            out.write("]")
        else:
            out.write(prefix + json.dumps(value))
    out.write("}\n")


def _emit(record: dict[str, Any], as_json: bool, printer, out) -> None:
    """Write a record as one JSON line, or through its text printer."""
    if as_json:
        _write_json(record, out)
    else:
        printer(record, out)


# -- subcommands -----------------------------------------------------

def _cmd_invariants(args, out) -> int:
    if args.batch:
        return _batch(Path(args.batch), out)
    if args.knot is None:
        raise CliParseError("invariants needs a knot argument or --batch DIR")
    record = _invariant_record(resolve_knot(args.knot))
    _emit(record, args.json, _print_invariant_text, out)
    return 0


def _batch(directory: Path, out) -> int:
    """One JSON line per *.json file, failures included; the worst status."""
    if not directory.is_dir():
        raise CliParseError(f"batch path {directory} is not a directory")
    codes = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = _invariant_record(_knot_from_file(path))
            codes.append(0)
        except tuple(EXIT_CODES) as exc:
            codes.append(_exit_code(exc))
            record = {"name": path.name, "error": str(exc), "exit": codes[-1]}
        _emit(record, True, None, out)
    print(f"{len(codes)} files, {sum(map(bool, codes))} failed", file=sys.stderr)
    return max(codes, default=0)


def _cmd_obstruct(args, out) -> int:
    first = resolve_knot(args.first)
    if args.second is None:
        verdict = obstruct_ribbon_trivial(first.invariants())
        names = (first.name, "trivial 2-knot")
    else:
        second = resolve_knot(args.second)
        verdict = obstruct_ribbon_equivalent(first.invariants(),
                                             second.invariants())
        names = (first.name, second.name)
    _emit(_verdict_record(verdict, names), args.json, _print_verdict_text, out)
    return 0


def _cmd_snf(args, out) -> int:
    matrix = _matrix_arg(args)
    if args.full:
        result = smith_normal_form(matrix)
        record = {"d": result.D, "u": result.U, "v": result.V}
    else:  # D alone: the Smith diagonal, without building U and V
        free, torsion = cokernel_invariants(matrix)
        ones = matrix.rows - free - len(torsion)
        record = {"d": _diagonal_matrix([1] * ones + list(torsion), matrix.rows, matrix.cols)}

    def print_text(record, out):
        for key, shown in record.items():
            print(f"{key.upper()} =", file=out)
            print(shown, file=out)

    _emit(record, args.json, print_text, out)
    return 0


def _cmd_alink(args, out) -> int:
    v = alinking(_induced_map(args))
    _emit({"alinking": str(v), "mod2": str(v % 2)}, args.json,
          _print_alink_text, out)
    return 0


def _cmd_braid(args, out) -> int:
    letters: list[int] = []
    for token in args.letters:
        for piece in token.split():
            try:
                letters.append(int(piece))
            except ValueError:
                raise CliParseError(f"bad braid letter {piece!r}") from None
    seifert = seifert_matrix_from_braid(BraidWord(args.strands, tuple(letters)))

    def print_text(record, out):
        print("Seifert matrix:", file=out)
        print(seifert.matrix, file=out)
        _print_invariant_text(record, out)

    record = _invariant_record(KnotRecord(
        name=f"closure of {letters} on {args.strands} strands",
        source="braid", seifert=seifert))
    _emit(record, args.json, print_text, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonmu",
        description=("Ribbon-move obstructions of 2-knots: mu-invariants, "
                     "branched-cover homology, torsion doubling tests, "
                     "Smith normal forms, and alinking numbers, all over "
                     "exact integer arithmetic."))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="mu, signature, determinant, and "
                       "cover homology of a 2-knot")
    p.add_argument("knot", nargs="?", help="catalog name, knot file, or "
                   "inline Seifert matrix")
    p.add_argument("--batch", metavar="DIR", help="process every *.json knot "
                   "file in DIR, one JSON record per line")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("obstruct", help="test ribbon-move equivalence "
                       "obstructions between two 2-knots")
    p.add_argument("first", help="knot spec")
    p.add_argument("second", nargs="?", help="knot spec; omitted = trivial 2-knot")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("matrix", nargs="?", help="inline JSON matrix")
    p.add_argument("--file", help="read the matrix from a JSON file")
    p.add_argument("--full", action="store_true", help="also print U and V")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("alink", help="alinking number of a (sphere, torus)-link")
    p.add_argument("matrix", nargs="?", help="columns \"(a,b) (c,d)\" or JSON "
                   "2-row matrix")
    p.add_argument("--file", help="read the 2-row matrix from a JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("braid", help="Seifert matrix of a braid closure")
    p.add_argument("letters", nargs="+", help="signed generator indices, "
                   "e.g. 1 1 1 or \"1 -2 1 -2\"")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "invariants": _cmd_invariants,
    "obstruct": _cmd_obstruct,
    "snf": _cmd_snf,
    "alink": _cmd_alink,
    "braid": _cmd_braid,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    # The wire format is decimal strings of any length, so Python's
    # int <-> str digit limit (3.10.7 and later) is lifted while the CLI
    # runs and restored after it.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except tuple(EXIT_CODES) as exc:
        code = _exit_code(exc)
        print(f"{'parse error' if code == 3 else 'error'}: {exc}", file=sys.stderr)
        return code
    finally:
        if lift:
            sys.set_int_max_str_digits(before)


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader went away.  Python flushes stdout again at exit, so
        # point it at the null device first; 141 = 128 + SIGPIPE is the
        # status a shell reports for a writer killed by that signal.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
