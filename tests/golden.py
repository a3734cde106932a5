"""The benchmark's seed-1 ops as digests, and the writer of their data file.

perfbench's ``corpus.generate`` builds the braid-knots, dense-forms and
cli-small corpora at seed 1 in a work directory.  Each distinct argv runs
once, in process through ``support.run_cli`` with stderr captured, and
the work directory's path reads ``<work>`` in the argv and in both
outputs.  An op is kept as its exit status, the SHA-256 of its stdout
and of its stderr, and the SHA-256 of each input file that its argv
names (each file in a directory it names), so a change to the generator
shows up as a changed input.  ``test_golden.py`` runs this code and
compares its result with ``data/golden_seed1.json``.  A change that means
to change an output rewrites that file; run from the repository root:

    PYTHONPATH=src python tests/golden.py

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from support import run_cli, time_limit

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data" / "golden_seed1.json"
SEED = 1
WORKLOADS = ("braid-knots", "dense-forms", "cli-small")  # not a heavier one added later


def _import_corpus():
    """perfbench's corpus module, with perfbench/ on ``sys.path`` for this
    import only (``corpus`` imports ``arith``) and no bytecode written there."""
    perfbench, write_bytecode = str(TESTS.parent / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, perfbench)
    sys.dont_write_bytecode = True
    try:
        import corpus
    finally:
        sys.path.remove(perfbench)
        sys.dont_write_bytecode = write_bytecode
    return corpus


corpus = _import_corpus()


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def golden(work: Path) -> list[dict]:
    """The record of each distinct seed-1 op, in corpus order, built and
    run in the empty directory ``work``; an op in two workloads counts for
    the first.  An op past its workload's deadline raises
    ``support.TimeLimitExceeded``."""
    argvs: dict[tuple[str, ...], tuple[str, float]] = {}
    for workload in WORKLOADS:
        (work / workload).mkdir()
        built = corpus.generate(workload, SEED, work / workload)
        for op in built.ops:
            argvs.setdefault(tuple(op.argv), (workload, built.deadline_s))

    def unwork(text: str) -> str:
        return text.replace(str(work), "<work>")

    records = []
    for argv, (workload, deadline_s) in argvs.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), time_limit(deadline_s):
            status, out = run_cli(*argv)
        named = [Path(w) for w in argv if w.startswith(str(work))]
        files = [f for p in named for f in (sorted(p.iterdir()) if p.is_dir() else [p])
                 if f.is_file()]
        records.append({"workload": workload, "argv": list(map(unwork, argv)), "exit": status,
                        "stdout": sha256(unwork(out)), "stderr": sha256(unwork(err.getvalue())),
                        "inputs": {unwork(str(f)): sha256(f.read_bytes()) for f in files}})
    return records


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        records = golden(Path(work))
    ops = ",\n".join(f"  {json.dumps(record)}" for record in records)
    DATA.write_text(f'{{"seed": {SEED}, "ops": [\n{ops}\n]}}\n')
    print(f"{len(records)} ops written to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
