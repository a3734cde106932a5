"""Line coverage of the package under tier-1: every executable line runs, except the listed ones.

The tier-1 tests run in process under one ``sys.settrace`` collector, which follows only frames
whose code lives in the ``ribbonmu`` package and stops following a code object once each of its
lines has run.  An executable line is one that ``co_lines`` of the compiled source names (the
line-0 module prologue aside); it is unrun when no frame ran it.  ``UNRUN`` lists the lines
that tier-1 may leave unrun, keyed by file and stripped source text, so that edits elsewhere
do not churn it, each with its reason.  Run from the repository root:

    PYTHONPATH=src python tests/lines.py

It exits 1 if tier-1 fails, if an executable line outside the list does not run, or if a
listed line runs.  pytest does not collect this file; it is no part of tier-1.
"""

import importlib.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# (file in the package, stripped source text): why tier-1 does not run that line in process
UNRUN = {
    ("__main__.py", "from .cli import entry_point"):
        "python -m ribbonmu runs it, in the subprocess tests only",
    ("__main__.py", "entry_point()"):
        "python -m ribbonmu runs it, in the subprocess tests only",
    ("cli.py", 'sys.stderr = open(os.devnull, "w")'):
        "stderr closed at start: a subprocess test starts the command so",
    ("cli.py", "reader, writer = os.pipe()"):
        "stdout closed at start: a subprocess test starts the command so",
    ("cli.py", "os.close(reader)"):
        "stdout closed at start: a subprocess test starts the command so",
    ("cli.py", 'sys.stdout = open(writer, "w")'):
        "stdout closed at start: a subprocess test starts the command so",
    ("cli.py", "sys.exit(141)  # a shell reports for a writer killed by that signal"):
        "a reader that goes away early: a subprocess test closes the pipe",
    ("abelian.py", "raise RuntimeError("):
        "the combiner's parity argument cannot fail; a test breaks it in a python -O child",
    ("abelian.py", 'f"parity argument failed: ({a}) + ({c}) is not of the form P + P")'):
        "the combiner's parity argument cannot fail; a test breaks it in a python -O child",
    ("exactla.py", "return cokernel_invariants(matrix)[1]"):
        "invariant_factors is kept for the benchmark tracer alone (ROADMAP item 2)",
    ("exactla.py", "return signature_and_determinant(form)[0]"):
        "signature is kept for the benchmark tracer alone (ROADMAP item 2)",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that ``co_lines`` names in every code object compiled from a file."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or the 0 prologue
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run_tier1(package: str) -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in process; its exit status and the lines run in each file of the package."""
    inside: dict[str, bool] = {}  # co_filename -> under the package
    todo: dict[object, tuple[set[int], set[int]]] = {}  # code -> (its lines, those not run yet)

    def follow(frame, event, arg):
        code = frame.f_code
        if code not in todo:
            name = code.co_filename
            if name not in inside:
                inside[name] = os.path.realpath(name).startswith(package)
            own = {line for _, _, line in code.co_lines() if line} if inside[name] else set()
            todo[code] = own, set(own)
        pending = todo[code][1]
        pending.discard(frame.f_lineno)  # the call's line: a def the enclosing code ran
        if not pending:
            return None

        def lines(frame, event, arg):
            if event == "line":
                pending.discard(frame.f_lineno)
            return lines
        return lines

    sys.settrace(follow)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
    ran: dict[str, set[int]] = defaultdict(set)
    for code, (own, pending) in todo.items():
        if own:
            ran[os.path.realpath(code.co_filename)] |= own - pending
    return status, ran


def main() -> int:
    start = time.perf_counter()
    spec = importlib.util.find_spec("ribbonmu")  # located, not imported: its import is traced
    root = Path(spec.submodule_search_locations[0]).resolve()
    status, ran = run_tier1(str(root) + os.sep)
    if status != pytest.ExitCode.OK:
        print(f"tier-1 failed under the collector: pytest exited {status}")
        return 1
    unrun, total = [], 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unrun += [(path.name, n, source[n - 1].strip())
                  for n in sorted(lines - ran[str(path)])]
    keys = {(name, text) for name, _, text in unrun}
    print(f"{total} executable lines, {len(unrun)} unrun in process:")
    for name, n, text in unrun:
        print(f"  {name}:{n}: {text}  -- {UNRUN.get((name, text), 'NOT LISTED')}")
    failures = [f"unrun and not listed: {name}:{n}: {text}"
                for name, n, text in unrun if (name, text) not in UNRUN]
    failures += [f"listed but run (or gone): {name}: {text}"
                 for name, text in UNRUN if (name, text) not in keys]
    for failure in failures:
        print(failure)
    print(f"{'FAILED' if failures else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
