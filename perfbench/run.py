"""Seeded end-to-end and per-layer benchmark of the ribbonmu CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's ops as ``python -m ribbonmu`` subprocesses
of this checkout's ``src/`` (CLI startup included), one at a time in a
closed loop with one client, and reports the end-to-end metrics.
``--trace 1`` runs every op once as a subprocess and once in process with
spans around each layer's functions, and reports the per-layer metrics.
Every output is checked (see check.py).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give failed_ratio, the tail's percentile
and sample count, latency by op kind, and the failures by cause.

Workloads, metrics and the layer -> end-to-end map are listed in
BENCHMARK.json and perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import check
import corpus
import spans

# Set-up (corpus, expected answers, warm-up) is repeated and the median
# reported, so one slow file-system moment does not move setup_s.
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
WORK_DIR = ".perfbench-work"


@dataclass
class Result:
    op: corpus.Op
    latency_s: float
    cause: str | None  # None on success
    out_bytes: int


class Runner:
    """Runs ops of one corpus as subprocesses and checks them."""

    def __init__(self, root: Path, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.state: dict = {}

    def spawn(self, argv: list[str],
              work: Path) -> tuple[int | None, bytes, bytes, float]:
        """Run one process to its exit or its deadline; rc None on a kill."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=self.deadline_s)
            return proc.returncode, out, err, time.perf_counter() - start
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err, self.deadline_s
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise

    def run(self, op: corpus.Op, work: Path) -> Result:
        rc, out, err, latency = self.spawn(["-m", "ribbonmu", *op.argv], work)
        return Result(op, latency, check.classify(op, rc, out, err, self.state),
                      len(out))


def setup(root: Path, work: Path, workload: str,
          seed: int) -> tuple[corpus.Corpus, list[float]]:
    """Build the corpus in ``work`` SETUP_REPEATS times, warming the CLI up
    each time.  Returns the last corpus and the set-up times."""
    runner = Runner(root, 60.0)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        built = corpus.generate(workload, seed, work)
        rc, out, err, _ = runner.spawn(
            ["-m", "ribbonmu", "invariants", "trefoil", "--json"], work)
        if rc != 0 or json.loads(out or b"{}").get("mu") != "2":
            raise SystemExit(f"warm-up failed (exit {rc}): {err.decode()[-500:]}")
        times.append(time.perf_counter() - start)
    return built, times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  Below 21 samples there is none and the median
    stands in, so the tail then repeats latency_p50_s."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    index = n - 11
    return xs[index], 100.0 * (index + 1) / n


def measure(built: corpus.Corpus, work: Path, runner: Runner,
            seconds: float) -> list[Result]:
    """Fixed ops once, then as many whole rounds as nominally fill
    ``seconds``.

    The round count depends on ``seconds`` and the workload only, never on
    how fast this run goes, so every run of a workload holds the same ops.
    """
    results = [runner.run(op, work) for op in built.ops if op.fixed]
    round_ops = [op for op in built.ops if not op.fixed]
    for _ in range(max(1, round(seconds / built.round_s))):
        results += [runner.run(op, work) for op in round_ops]
    return results


def end_to_end(results: list[Result],
               setup_times: list[float]) -> tuple[dict, list[str]]:
    latencies = [r.latency_s for r in results]
    wall = sum(latencies)
    ok = sum(1 for r in results if r.cause is None)
    tail_s, tail_pct = tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "ops_per_s": (ok / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    failed = len(results) - ok
    notes = [
        f"failed_ratio {failed / len(results):.6f} ({failed}/{len(results)})",
        f"latency_tail_s is p{tail_pct:.1f} over {len(results)} samples",
    ]
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.latency_s)
    notes += [f"{kind}: n={len(xs)} median {statistics.median(xs):.4f} s"
              for kind, xs in sorted(by_kind.items())]
    return metrics, notes


# -- traced run ------------------------------------------------------------

class Deadline(BaseException):
    """Raised by the alarm in an in-process op that ran past its deadline.

    A BaseException, so the CLI's own ``except ValueError`` cannot eat it.
    """


def in_process(argv: list[str], deadline_s: float, tracer: spans.Tracer,
               deadlines: Counter) -> None:
    """Run ``ribbonmu.cli.main(argv)`` here under one ``cli.main`` span.

    An op past its deadline is stopped by an alarm; ``deadlines`` counts
    the layer of the innermost span open at that moment.
    """
    from ribbonmu import cli

    def alarm(signum, frame):
        deadlines[(tracer.innermost() or "none").split(".")[0]] += 1
        raise Deadline

    previous = signal.signal(signal.SIGALRM, alarm)
    root = tracer.open("cli.main")
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv, out=io.StringIO())
    except (Deadline, SystemExit, Exception):
        pass  # exit codes and tracebacks are judged on the subprocess run
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        tracer.close(root)
        tracer.stack.clear()


def traced(built: corpus.Corpus, work: Path,
           runner: Runner) -> tuple[list[Result], dict]:
    """One pass over every op: as a subprocess, then in process with spans."""
    import ribbonmu.cli  # noqa: F401  (loads every layer module)

    tracer = spans.Tracer()
    deadlines: Counter = Counter()
    results, cli_self = [], 0.0
    for op in built.ops:
        result = runner.run(op, work)
        results.append(result)
        root = len(tracer.spans)
        installed = spans.Installation(tracer)
        try:
            in_process(op.argv, built.deadline_s, tracer, deadlines)
        finally:
            installed.remove()
        library = sum(s.duration for s in tracer.spans[root:] if s.parent == root)
        cli_self += result.latency_s - library
    startup = statistics.median(runner.spawn(["-c", "import ribbonmu.cli"], work)[3]
                                for _ in range(STARTUP_SAMPLES))
    metrics = {
        "braid.seifert_s": (tracer.total("braid.seifert", self_time=True), "s"),
        "braid.loops": (tracer.counts["braid.loops"], "count"),
        "exactla.signature_s": (tracer.total("exactla.signature"), "s"),
        "exactla.signature_calls": (tracer.calls("exactla.signature"), "count"),
        "exactla.determinant_s": (tracer.total("exactla.determinant"), "s"),
        "exactla.determinant_calls": (tracer.calls("exactla.determinant"), "count"),
        "exactla.smith_for_diagonal_s": (tracer.total("exactla.smith_for_diagonal"), "s"),
        "exactla.smith_for_transforms_s": (
            tracer.total("exactla.smith_for_transforms"), "s"),
        "exactla.transform_bits_max": (
            tracer.maxima["exactla.transform_bits_max"], "bits"),
        "abelian.from_presentation_s": (
            tracer.total("abelian.from_presentation", self_time=True), "s"),
        "abelian.is_double_s": (tracer.total("abelian.is_double"), "s"),
        "abelian.direct_sum_s": (tracer.total("abelian.direct_sum"), "s"),
        "abelian.deadline_exceeded": (deadlines["abelian"], "count"),
        "spinmu.invariants_self_s": (
            tracer.total("spinmu.invariants", self_time=True), "s"),
        "spinmu.validate_seifert_s": (
            tracer.total("spinmu.validate_seifert", self_time=True), "s"),
        "obstruct.verdict_self_s": (tracer.total("obstruct.verdict", self_time=True), "s"),
        "alink.alinking_s": (tracer.total("alink.alinking"), "s"),
        "cli.startup_s": (startup, "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.output_bytes": (sum(r.out_bytes for r in results), "bytes"),
        "trace.overhead_s": (len(tracer.spans) * spans.wrapper_cost(), "s"),
    }
    return results, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "ribbonmu" / "cli.py").is_file():
        print(f"error: no ribbonmu sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        built, setup_times = setup(root, work, args.workload, args.seed)
        runner = Runner(root, built.deadline_s)
        if args.trace:
            results, metrics = traced(built, work, runner)
            notes = []
        else:
            results = measure(built, work, runner, args.seconds)
            metrics, notes = end_to_end(results, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share it
            work.parent.rmdir()
    causes = Counter(f"{r.op.kind}: {r.cause}" for r in results if r.cause)
    for line in notes + [f"failed {k} x{v}" for k, v in sorted(causes.items())]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    wrong = any(r.cause.startswith("wrong") for r in results if r.cause)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.cause),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
