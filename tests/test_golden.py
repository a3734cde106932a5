"""The benchmark's distinct seed-1 ops keep their exit status, stdout and
stderr.  Each prints mu, the cover torsion or the alinking number (or
fails as the exit contract says), so an output that changes shows here.
``golden.py`` builds and runs the ops, and rewrites the data file."""

import json

from golden import DATA, golden

FIELDS = ("workload", "exit", "stdout", "stderr", "inputs")


def name(op: dict) -> str:
    return f"{op['workload']}: {' '.join(op['argv'])}"


def test_seed1_ops_match_their_digests(tmp_path):
    expected = {tuple(op["argv"]): op for op in json.loads(DATA.read_text())["ops"]}
    differ = []
    for op in golden(tmp_path):
        old = expected.pop(tuple(op["argv"]), None)
        if old is None:
            differ.append(f"{name(op)}: not in the data file")
        elif op != old:
            differ.append(f"{name(op)}: {', '.join(f for f in FIELDS if op[f] != old[f])} differ")
    differ += [f"{name(op)}: in the data file, not in the corpus" for op in expected.values()]
    assert not differ, f"ops that differ from {DATA.name}:\n" + "\n".join(differ)
