"""Run every workload over ten seeds and write perfbench/baseline.json.

From the root of a checkout:

    python3 perfbench/baseline.py

Each workload runs once per seed with tracing off, then once traced (first
seed), each run lasting BENCHMARK.json's ``run_seconds``.  The output holds
every run's end-to-end metrics, their median and quartile spread, the
failing ops by cause, the traced per-layer metrics, and the map from layer
metrics to the end-to-end metrics they should move.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from corpus import WORKLOADS

SEEDS = list(range(1, 11))
OUT = Path("perfbench/baseline.json")

# Which end-to-end metric each layer metric should move, and on which
# workload.  A change to one layer cites this before claiming a gain.
# latency_tail_s is mapped nowhere: braid-knots runs 16 ops, too few for a
# percentile with ten samples beyond it, so its tail repeats the median;
# on dense-forms the tail sits in the same 52-row cluster as the median;
# and on cli-small the three abelian deadline kills lie beyond the tail.
LAYER_MAP = [
    {"metrics": ["braid.seifert_s", "braid.loops"],
     "moves": ["ops_per_s", "latency_p50_s"], "on": ["braid-knots"]},
    {"metrics": ["exactla.signature_s", "exactla.signature_calls"],
     "moves": ["latency_p50_s", "ops_per_s"], "on": ["braid-knots", "dense-forms"]},
    {"metrics": ["exactla.determinant_s", "exactla.determinant_calls"],
     "moves": ["latency_p50_s"], "on": ["braid-knots"]},
    {"metrics": ["exactla.smith_for_diagonal_s"],
     "moves": ["latency_p50_s"], "on": ["dense-forms", "braid-knots"]},
    {"metrics": ["exactla.smith_for_transforms_s", "exactla.transform_bits_max"],
     "moves": ["failed_ratio", "peak_rss_mb"], "on": ["dense-forms"]},
    {"metrics": ["abelian.from_presentation_s", "abelian.is_double_s",
                 "abelian.direct_sum_s", "abelian.deadline_exceeded"],
     "moves": ["failed_ratio", "ops_per_s"], "on": ["cli-small"]},
    {"metrics": ["spinmu.invariants_self_s", "spinmu.validate_seifert_s"],
     "moves": ["latency_p50_s"], "on": ["braid-knots"]},
    {"metrics": ["obstruct.verdict_self_s"], "moves": ["latency_p50_s"], "on": ["cli-small"]},
    {"metrics": ["alink.alinking_s"], "moves": ["latency_p50_s"], "on": ["cli-small"]},
    {"metrics": ["cli.startup_s", "cli.self_s", "cli.output_bytes"],
     "moves": ["latency_p50_s", "ops_per_s"], "on": ["cli-small"]},
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["notes"] = lines[:-1 - len(result["metrics"])]
    return result


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": statistics.median(values),
                         "quartile_spread": spread(values) if len(values) > 1 else None,
                         "runs": values}
    causes = Counter()
    for r in runs:
        for note in r["notes"]:
            if note.startswith("failed "):
                what, count = note[len("failed "):].rsplit(" x", 1)
                causes[what] += int(count)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "failed_ratio": [r["failed"] / r["attempted"] for r in runs],
        "failures_by_cause": dict(sorted(causes.items())),
        "notes_first_seed": runs[0]["notes"],
        "metrics": metrics,
    }


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "run_seconds": seconds, "seeds": SEEDS,
              "layer_map": LAYER_MAP, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        entry = summarize(runs)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{workload} {name} median {m['median']:.6g} {m['unit']} "
                  f"spread {m['quartile_spread']}", flush=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
