"""Tests of the benchmark itself: generator, checker, deadline and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _snapshot(work: Path, built: corpus.Corpus) -> tuple:
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    ops = [(op.kind, [a.replace(str(work), "<work>") for a in op.argv],
            op.check, json.dumps(op.expect, sort_keys=True), op.exit_code, op.fixed)
           for op in built.ops]
    return files, ops


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    snaps = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / name
        work.mkdir()
        snaps.append(_snapshot(work, corpus.generate(workload, seed, work)))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


def _trefoil_record() -> dict:
    return {"name": "trefoil", "source": "catalog", "mu": "2", "modulus": "16",
            "signature": "2", "form_determinant": "3",
            "h1_invariant_factors": ["3"], "h1_is_double": False,
            "h1_double_half": None, "form": [["2", "1"], ["1", "2"]]}


def test_checker_rejects_wrong_mu():
    op = corpus.Op("catalog", ["invariants", "trefoil", "--json"], "invariants",
                   dict(corpus.CATALOG["trefoil"]))
    good = json.dumps(_trefoil_record()).encode()
    assert check.classify(op, 0, good, b"", {}) is None
    bad = json.dumps(dict(_trefoil_record(), mu="3")).encode()
    assert check.classify(op, 0, bad, b"", {}).startswith("wrong")


def test_checker_rejects_broken_smith_identity(tmp_path):
    m = [[2, 4], [6, 8]]  # U M V = diag(2, 4) with the transforms below
    path = tmp_path / "m.json"
    path.write_text(json.dumps(corpus.rows_json(m)))
    op = corpus.Op("snf-full", ["snf", "--file", str(path), "--full", "--json"],
                   "snf-full", {"seed": 1})
    record = {"d": [["2", "0"], ["0", "4"]], "u": [["1", "0"], ["3", "-1"]],
              "v": [["1", "-2"], ["0", "1"]]}
    assert check.classify(op, 0, json.dumps(record).encode(), b"", {}) is None
    record["d"][1][1] = "8"
    cause = check.classify(op, 0, json.dumps(record).encode(), b"", {})
    assert cause == "wrong: U*M*V != D"


def test_checker_names_traceback_and_exit_code():
    op = corpus.Op("malformed", ["invariants", "x.json"], "malformed", exit_code=3)
    assert check.classify(op, 1, b"", b"Traceback (most recent call last):\n", {}) \
        == "traceback"
    assert check.classify(op, 2, b"", b"error: nope\n", {}) == "exit 2"
    assert check.classify(op, 3, b"", b"parse error: nope\n", {}) is None


def _hard_op(tmp_path) -> corpus.Op:
    built = corpus.generate("cli-small", 3, tmp_path)
    return next(op for op in built.ops if op.kind == "hard-invariants")


def test_deadline_kill_counts_as_failed(tmp_path):
    runner = run.Runner(ROOT, deadline_s=0.5)
    result = runner.run(_hard_op(tmp_path), tmp_path)
    assert result.cause == "deadline"
    assert result.latency_s == 0.5


COUNTS = ("braid.loops", "exactla.signature_calls", "exactla.determinant_calls",
          "exactla.transform_bits_max", "abelian.deadline_exceeded",
          "cli.output_bytes")


def test_traced_counts_repeat_exactly(tmp_path):
    built = corpus.generate("cli-small", 5, tmp_path)
    hard = tmp_path / "hard"
    hard.mkdir()
    small = tmp_path / "small.json"
    small.write_text(json.dumps(corpus.rows_json([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])))
    ops = [op for op in built.ops if not op.fixed][:12] + [
        _hard_op(hard),
        corpus.Op("snf-full", ["snf", "--file", str(small), "--full", "--json"],
                  "snf-full", {"seed": 2}),
    ]
    short = corpus.Corpus(ops, deadline_s=0.5, round_s=1.0)
    counts = []
    for _ in range(2):
        results, metrics = run.traced(short, tmp_path, run.Runner(ROOT, 0.5))
        causes = [r.cause for r in results]
        assert causes == [None] * 12 + ["deadline", None]
        counts.append({k: metrics[k][0] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["abelian.deadline_exceeded"] == 1
    assert counts[0]["exactla.transform_bits_max"] > 0


def test_refuses_to_run_without_sources(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "cli-small", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    finally:
        os.chdir(cwd)
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_round_count_depends_on_seconds_only():
    class Echo:
        def run(self, op, work):
            return op

    ops = [corpus.Op("fixed", [], "batch", fixed=True), corpus.Op("round", [], "batch")]
    built = corpus.Corpus(ops, deadline_s=1.0, round_s=6.0)
    assert len(run.measure(built, ROOT, Echo(), 30)) == 1 + 5
    assert len(run.measure(built, ROOT, Echo(), 1)) == 1 + 1
