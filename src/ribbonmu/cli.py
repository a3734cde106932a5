"""Command-line interface.

Subcommands: invariants, obstruct, snf, alink, braid.  Each returns its
record and text printer; :func:`main` alone writes the record, as JSON
or as text.  Knots are given as catalog names, inline Seifert matrices,
or JSON knot files; a path is a plain string, quoted as given in errors.
The JSON wire format is this module's: matrix entries are read as JSON
integers or decimal strings ``-?[0-9]+`` (the grammar of braid letters
and ``--strands`` too) and written as decimal strings; ``--json`` writes
each record as exactly ``json.dumps(record)`` and a newline, matrices
streamed row by row.  Exit status is a stable scripting contract: 0 on
success (whatever the verdict), 2 on validation errors and on output that
cannot be written, 3 on parse errors, and 141 when standard output is
closed early; an error line that stderr cannot take is dropped.  The
console entry point freezes the import-time heap, so exit skips it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from itertools import compress
from types import SimpleNamespace

from .abelian import FiniteAbelianGroup, is_double
from .alink import InducedMap, alinking
from .braid import BraidWord, KnotRecord, catalog, seifert_matrix_from_braid
from .exactla import (InputError, IntMatrix, _diagonal_matrix, cokernel_invariants,
                      smith_normal_form)
from .obstruct import Verdict, obstruct_ribbon_equivalent, obstruct_ribbon_trivial
from .spinmu import validate_seifert

_DECIMAL = re.compile(r"-?[0-9]+")  # a command-line integer, or a matrix entry string
_SPACES = re.compile(r"\s+", re.ASCII)  # between braid letters: space, \t, \n, \r, \f, \v
_COLUMN_RE = re.compile(r"\(\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*\)", re.ASCII)  # "(a,b)"
_COLUMN_SEPARATORS = " \t\n\r\f\v,;"  # between columns: the ASCII whitespace of \s, "," and ";"


class CliParseError(InputError):
    """Malformed command-line or file input: exit status 3, not 2."""


def integer(text: str, where: str = "") -> int:
    """A command-line integer: ASCII ``-?[0-9]+``, as string matrix entries."""
    if _DECIMAL.fullmatch(text) is None:
        raise CliParseError(f"{where}{text!r} is not an integer -?[0-9]+")
    return int(text)


def _read_json(path: str) -> object:
    """Decode the JSON file at a path."""
    try:
        with open(path, encoding="utf-8") as file:  # JSON text is UTF-8 (RFC 8259)
            text = file.read()
    except (OSError, UnicodeError) as exc:  # an OSError's strerror omits the path
        raise CliParseError(f"cannot read {path!r}: {getattr(exc, 'strerror', exc)}") from None
    return _decode(text, f"{path}:")


def _decode(text: str, where: str) -> object:
    """Decode JSON text; ``where`` starts each error message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError(f"{where} parse error at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from None
    except RecursionError:
        raise CliParseError(f"{where} parse error: nested too deeply") from None


def _matrix_from_json(data: object) -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise CliParseError("matrix must be an array of arrays")
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            # type(...) is int: JSON true/false arrive as bool, a subclass of int
            if type(x) is not int and (type(x) is not str or _DECIMAL.fullmatch(x) is None):
                got = type(x).__name__ if isinstance(x, (list, dict)) else json.dumps(x)
                got = got if len(got) <= 40 else got[:36] + " ..."
                raise CliParseError(f"bad matrix entry [{i}][{j}]: {got}, not an "
                                    "integer or a decimal string")
    try:
        return IntMatrix.from_rows([list(map(int, row)) for row in data])
    except ValueError as exc:
        raise CliParseError(f"bad matrix: {exc}") from None


_KNOT_KEYS = ("name", "catalog", "braid", "seifert_matrix", "even_form")
_BRAID_KEYS = ("strands", "letters")


def _check_keys(spec: dict, keys: tuple[str, ...], where: str) -> None:
    """A key outside ``keys`` is a parse error, never silently ignored."""
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise CliParseError(f"{where}: unknown key {unknown[0]!r}, not one of {keys}")


def _knot(spec: object, default_name: str, where: str) -> KnotRecord:
    """The knot of a spec in the knot-file schema; ``where`` starts its errors."""
    if not isinstance(spec, dict):
        raise CliParseError(f"{where}: knot file must be a JSON object")
    _check_keys(spec, _KNOT_KEYS, where)
    for key in ("catalog", "name"):
        if key in spec and not isinstance(spec[key], str):
            raise CliParseError(f"{where}: {key!r} must be a string")
    sources = [k for k in ("catalog", "braid", "seifert_matrix") if k in spec]
    even_form = (_matrix_from_json(spec["even_form"])
                 if "even_form" in spec else None)
    if len(sources) > 1 or (not sources and even_form is None):
        raise CliParseError(
            f"{where}: need one of catalog/braid/seifert_matrix (or an "
            f"even_form), got {sources or 'none'}")
    source, seifert = (sources or ["even_form"])[0], None
    if source == "catalog":
        entry = catalog(spec["catalog"])
        seifert = entry.seifert
        even_form = entry.even_form if even_form is None else even_form
    elif source == "braid":
        word = spec["braid"]
        if not isinstance(word, dict) or "strands" not in word or "letters" not in word:
            raise CliParseError(f"{where}: braid needs 'strands' and 'letters'")
        _check_keys(word, _BRAID_KEYS, f"{where}: braid")
        strands, letters = word["strands"], word["letters"]
        # type(...) is int: JSON true/false arrive as bool, a subclass of int
        if (type(strands) is not int or not isinstance(letters, list)
                or any(type(x) is not int for x in letters)):
            raise CliParseError(f"{where}: braid 'strands' must be an integer and 'letters' "
                                "a list of integers")
        seifert = seifert_matrix_from_braid(BraidWord(strands, letters))
    elif source == "seifert_matrix":
        seifert = validate_seifert(_matrix_from_json(spec["seifert_matrix"]))
    return KnotRecord(name=spec.get("name", default_name), source=source.replace("_", "-"),
                      seifert=seifert, even_form=even_form)


def resolve_knot(spec: str) -> KnotRecord:
    """Inline Seifert matrix, path to a JSON knot file, or catalog name.

    An argument ending in ``.json`` is a knot file.  Otherwise one starting with ``[`` is
    a matrix, an existing path that is not a directory a file, and any other a name.
    """
    if spec.lstrip().startswith("[") and not spec.endswith(".json"):
        return _knot({"seifert_matrix": _decode(spec, "matrix")}, "<inline>", "matrix")
    if not (spec.endswith(".json") or os.path.exists(spec) and not os.path.isdir(spec)):
        return catalog(spec)
    return _knot(_read_json(spec), os.path.splitext(os.path.basename(spec))[0], spec)


def _matrix_arg(args) -> IntMatrix:
    """The matrix of ``snf`` and ``alink``: ``--file``, else inline JSON."""
    return _matrix_from_json(_decode(args.matrix, "matrix") if args.file is None
                             else _read_json(args.file))


def _induced_map(args) -> InducedMap:
    """Columns "(a,b) (c,d) ..." or a 2-row matrix, inline or from --file."""
    text = args.matrix
    if args.file is not None or text.lstrip().startswith("["):
        matrix = _matrix_arg(args)
        if matrix.rows != 2:
            raise CliParseError(
                f"induced map needs exactly 2 rows, got {matrix.rows}")
        return InducedMap(matrix)
    columns = [[int(a), int(b)] for a, b in _COLUMN_RE.findall(text)]
    leftover = _COLUMN_RE.sub("", text).strip(_COLUMN_SEPARATORS)
    if leftover or not columns:
        raise CliParseError(
            f"cannot parse induced map from {text!r}; use \"(a,b) (c,d)\" "
            "columns or a JSON 2-row matrix")
    return InducedMap.from_columns(columns)


# -- reports ---------------------------------------------------------

def _invariant_record(knot: KnotRecord) -> dict[str, object]:
    inv = knot.invariants()
    torsion = inv.cover_torsion
    half = is_double(torsion)
    record: dict[str, object] = {
        "name": knot.name,
        "source": knot.source,
        "mu": str(inv.mu.value),
        "modulus": "16",
        "signature": str(inv.signature),
        "form_determinant": str(inv.form_determinant),
        "h1_invariant_factors": torsion,
        "h1_is_double": half is not None,
        "h1_double_half": half,
        "form": inv.form,
    }
    if knot.seifert is not None:
        record["seifert_matrix"] = knot.seifert.matrix
    return record


def _print_invariant_text(record: dict[str, object], out) -> None:
    print(f"name: {record['name']}  (source: {record['source']})", file=out)
    print(f"mu = {record['mu']} (mod 16)", file=out)
    print(f"signature = {record['signature']}", file=out)
    print(f"form determinant = {record['form_determinant']}", file=out)
    print(f"H1(Seifert hypersurface) = {record['h1_invariant_factors']}", file=out)
    if record["h1_is_double"]:
        print(f"doubling test: passes, half = {record['h1_double_half']}", file=out)
    else:
        print("doubling test: fails (not of the form G + G)", file=out)


def _verdict_record(verdict: Verdict, names: tuple[str, str]) -> dict[str, object]:
    return {
        "first": names[0],
        "second": names[1],
        "conclusion": verdict.conclusion.value,
        "rule": verdict.rule,
        "mu_pair": None if verdict.mu_pair is None else
            [str(m.value) for m in verdict.mu_pair],
        "torsion_witness": verdict.torsion_witness,
        "explanation": verdict.explanation(),
    }


def _print_verdict_text(record: dict[str, object], out) -> None:
    print(f"{record['first']} vs {record['second']}:", file=out)
    print(f"conclusion: {record['conclusion']}", file=out)
    print(record["explanation"], file=out)


def _print_alink_text(record: dict[str, object], out) -> None:
    print(f"alinking = {record['alinking']}", file=out)
    print(f"alinking mod 2 = {record['mod2']}", file=out)


def _json_row(row: tuple[int, ...]) -> str:
    """``json.dumps`` of a row's decimal strings; a row at least half zeros as runs of zeros."""
    if 2 * row.count(0) < len(row):
        return '["' + '", "'.join(map(str, row)) + '"]'
    parts, last = [], 0
    for j in compress(range(len(row)), row):
        parts += '"0", ' * (j - last), f'"{row[j]}", '
        last = j + 1
    return "[" + "".join(parts + ['"0", ' * (len(row) - last)])[:-2] + "]"


def _write_json(record: dict[str, object], out) -> None:
    """Write ``json.dumps(record)`` and a newline, piece by piece.

    A :class:`FiniteAbelianGroup` value is written as its invariant factors and an
    :class:`IntMatrix` value as its rows, one row at a time, all as decimal strings, so
    neither a list of a matrix's entry strings nor the whole record's text is ever built.
    """
    out.write("{")
    sep = ""
    for key, value in record.items():
        prefix, sep = f"{sep}{json.dumps(key)}: ", ", "
        if isinstance(value, FiniteAbelianGroup):
            value = list(map(str, value.invariant_factors))
        if isinstance(value, IntMatrix):
            rows = map(_json_row, value.entries)
            out.write(f"{prefix}[{next(rows, '')}")
            for row in rows:
                out.write(", " + row)
            out.write("]")
        else:
            out.write(prefix + json.dumps(value))
    out.write("}\n")


# -- subcommands -----------------------------------------------------

def _cmd_invariants(args):
    return _invariant_record(resolve_knot(args.knot)), _print_invariant_text


def _batch(directory: str, out) -> int:
    """One JSON line per *.json file, errors too; the worst status. Only listing checks the dir."""
    try:
        names = sorted((n for n in os.listdir(directory) if n.endswith(".json")), key=os.fsencode)
    except OSError as exc:
        raise CliParseError(f"cannot read {directory!r}: {exc.strerror}") from None
    codes = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            if not os.path.isfile(path):  # opening a FIFO, say, would block
                raise CliParseError(f"cannot read {path!r}: not a regular file")
            record = _invariant_record(resolve_knot(path))
            codes.append(0)
        except (InputError, MemoryError) as exc:
            codes.append(3 if isinstance(exc, CliParseError) else 2)
            record = {"name": name, "error": str(exc) or "out of memory", "exit": codes[-1]}
        _write_json(record, out)
    _warn(f"{len(codes)} files, {sum(map(bool, codes))} failed")
    return max(codes, default=0)


def _cmd_obstruct(args):
    first = resolve_knot(args.first)
    if args.second is None:
        verdict = obstruct_ribbon_trivial(first.invariants())
        names = (first.name, "trivial 2-knot")
    else:
        second = resolve_knot(args.second)
        verdict = obstruct_ribbon_equivalent(first.invariants(),
                                             second.invariants())
        names = (first.name, second.name)
    return _verdict_record(verdict, names), _print_verdict_text


def _cmd_snf(args):
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

    return record, print_text


def _cmd_alink(args):
    v = alinking(_induced_map(args))
    return {"alinking": str(v), "mod2": str(v % 2)}, _print_alink_text


def _cmd_braid(args):
    letters = [integer(p) for token in args.letters for p in _SPACES.split(token) if p]
    knot = _knot({"braid": {"strands": args.strands, "letters": letters}},
                 f"closure of {letters} on {args.strands} strands", "braid")

    def print_text(record, out):
        print("Seifert matrix:", file=out)
        print(knot.seifert.matrix, file=out)
        _print_invariant_text(record, out)

    return _invariant_record(knot), print_text


# The argv grammar: each subcommand's command, arguments ("?" optional, "+" the remaining words),
# options ("=METAVAR" takes a value, at most once; "=N" an integer) and help sentence.  Exactly one
# of an optional first argument and the value option is given; else all but "?" are required.
_COMMANDS = {
    "invariants": (_cmd_invariants, ("knot?",), ("--batch=DIR", "--json"), "mu, signature, "
                   "determinant, and cover homology of a 2-knot, or of each *.json file in DIR"),
    "obstruct": (_cmd_obstruct, ("first", "second?"), ("--json",), "test ribbon-move "
                 "equivalence obstructions between two 2-knots (one: against the trivial one)"),
    "snf": (_cmd_snf, ("matrix?",), ("--file=FILE", "--full", "--json"),
            "Smith normal form of an integer matrix, inline JSON or a JSON file; --full adds U, V"),
    "alink": (_cmd_alink, ("matrix?",), ("--file=FILE", "--json"), "alinking number of a "
              "(sphere, torus)-link: columns \"(a,b) (c,d)\" or a JSON 2-row matrix"),
    "braid": (_cmd_braid, ("letters+",), ("--strands=N", "--json"), "Seifert matrix of a braid "
              "closure: letters are signed generator indices, e.g. 1 1 1 or \"1 -2 1 -2\""),
}
_OPTION = r"-(?!\d+$|\d*\.\d+$)[^ ]+"  # not "-", a negative number or with a space; see is_option


def _help(command: str | None) -> None:
    """Print the usage of every subcommand, or of one, and exit 0."""
    print("usage: ribbonmu [-h] SUBCOMMAND ...\n\nA knot is a catalog name, a JSON knot file or "
          "an inline Seifert matrix.\n--json writes machine-readable output.")
    for name in [command] if command else _COMMANDS:
        _, arguments, options, sentence = _COMMANDS[name]
        shown = [f"[{a[:-1]}]" if a[-1] == "?" else a.replace("+", " ...") for a in arguments]
        shown += [f"[{o}]" if "=" not in o or arguments[0][-1] == "?" else o for o in options]
        print(f"\n  ribbonmu {name} [-h] {' '.join(shown).replace('=', ' ')}\n      {sentence}")
    raise SystemExit(0)


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The subcommand that ``argv`` names first, and its fields.  Every word that names no option
    is an argument, in order, and so is every word after "--".  Usage errors raise CliParseError."""
    if (command := argv[0] if argv else None) in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        raise CliParseError(f"ribbonmu: expected a subcommand, one of {', '.join(_COMMANDS)}")
    _, arguments, options, _ = _COMMANDS[command]
    options = dict(o.partition("=")[::2] for o in options)  # option: metavar ("" for a flag)
    is_option = re.compile(rf"(?s)(?:{'|'.join(options)}|-h|--help)=.*|{_OPTION}").fullmatch
    fields = {o[2:]: None if metavar else False for o, metavar in options.items()}
    value = next((o for o, metavar in options.items() if metavar), None)
    one_of = arguments[0][-1] == "?" and value is not None
    words, extras, dashes, rest = [], [], False, iter(argv[1:])
    room = len(argv) if arguments[-1][-1] == "+" else len(arguments)  # arguments it takes
    try:
        for word in rest:
            option, equals, text = word.partition("=")
            if dashes or not is_option(word):
                (words if len(words) < room else extras).append(word)
            elif word in ("--", "-h", "--help"):  # _help exits
                dashes = word == "--" or _help(command)
            elif (metavar := options.get(option)) is None or equals and not metavar:
                extras.append(word)
            elif metavar and not equals and is_option(text := next(rest, "--")):
                raise CliParseError(f"argument {option}: expected one argument")
            elif metavar and fields[option[2:]] is not None:
                raise CliParseError(f"argument {option}: given twice")
            else:
                fields[option[2:]] = not metavar or (
                    integer(text, f"argument {option}: ") if metavar == "N" else text)
        if one_of and bool(words) == (fields[value[2:]] is not None):
            raise CliParseError(f"give exactly one of {arguments[0][:-1]} and {value}")
        missing = [a.rstrip("+") for a in arguments[len(words):] if a[-1] != "?"]
        missing += [value] if value and not one_of and fields[value[2:]] is None else []
        if missing or extras:
            raise CliParseError(f"the following arguments are required: {', '.join(missing)}"
                                if missing else f"unrecognized arguments: {' '.join(extras)}")
    except CliParseError as exc:
        raise CliParseError(f"ribbonmu {command}: {exc}") from None
    for i, a in enumerate(arguments):
        fields[a.rstrip("?+")] = words[i:] if a[-1] == "+" else words[i] if i < len(words) else None
    return command, SimpleNamespace(**fields)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    # The wire format has decimals of any length, so the int <-> str digit limit is lifted here.
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if getattr(args, "batch", None) is not None:
            return _batch(args.batch, out)
        record, printer = _COMMANDS[command][0](args)
        (_write_json if args.json else printer)(record, out)
        return 0
    except (InputError, MemoryError) as exc:  # bad or too large input; a bug keeps its traceback
        code, kind = (3, "parse error") if isinstance(exc, CliParseError) else (2, "error")
        _warn(f"{kind}: {str(exc) or 'out of memory'}")
        return code
    finally:
        sys.set_int_max_str_digits(before)


def _warn(line: str) -> None:
    """Print a line to stderr, or drop it if stderr cannot take it: the exit status still tells."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:  # Python flushes stderr again at exit, where a failure would exit 120
        _to_null_device(sys.stderr)


def _to_null_device(stream) -> None:
    """Point a stream's file descriptor at the null device, where writing cannot fail."""
    fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
    if null != fd:  # else the stream's descriptor was closed, and os.open reused it
        os.dup2(null, fd)
        os.close(null)


def entry_point() -> None:
    gc.freeze()  # all imports, no garbage: the four full collections at exit skip it, 3-9 ms
    if sys.stderr is None:  # started with stderr closed: errors go nowhere, never to stdout
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # started with stdout closed: writing to it is a broken pipe
        reader, writer = os.pipe()
        os.close(reader)
        sys.stdout = open(writer, "w")
    # stderr's handler: what the locale cannot encode ("⊕", a name) is escaped
    sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe or a full disk fails here, not at exit
    except OSError as exc:  # stdout cannot take the output (a read error is a CliParseError)
        # Python flushes stdout again at exit, so point it at the null device first
        _to_null_device(sys.stdout)
        if isinstance(exc, BrokenPipeError):  # the reader went away: 141 = 128 + SIGPIPE, what
            sys.exit(141)  # a shell reports for a writer killed by that signal
        _warn(f"error: cannot write output: {exc.strerror}")
        code = 2
    sys.exit(code)
