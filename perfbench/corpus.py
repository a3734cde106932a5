"""Seeded corpus generator for the ribbonmu benchmark.

Every workload is built from ``random.Random(f"{workload}:{seed}")`` and
written as plain files into a work directory; the program under test only
ever sees those files and the command lines built here.  Expected answers
are known by construction (block sums whose signature, determinant and
cover group are read off the blocks) or, for the braid corpus, are the
consistency laws the checker enforces.  Nothing here imports ribbonmu.

Inputs that hit known defects of the program (the factorization hang, the
4300-digit ``snf --full`` failure, exit-1 tracebacks) are generated on
purpose and stay in the corpus: they are counted as failed operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import arith

WORKLOADS = ("braid-knots", "dense-forms", "cli-small")

# Per-op deadlines in seconds.  They sit far above the slowest healthy op
# of each workload on a 2-core machine, so only a hang reaches them.
DEADLINE_S = {"braid-knots": 60.0, "dense-forms": 60.0, "cli-small": 2.5}

# Nominal seconds of one round on a 2-vCPU x86-64 VM at the first
# baseline; a run of ``--seconds S`` holds round(S / ROUND_S) rounds (at
# least one).  cli-small's figure spreads its fixed ops (three deadline
# kills) over the five rounds a 30-second run holds.
ROUND_S = {"braid-knots": 42.0, "dense-forms": 30.0, "cli-small": 6.0}


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    ``argv`` follows ``python -m ribbonmu``.  ``check`` names the checker
    rule and ``expect`` carries its expected data.  ``fixed`` ops run once
    per measured run, before the repeating round.
    """

    kind: str
    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)
    exit_code: int = 0
    fixed: bool = False


@dataclass
class Corpus:
    ops: list[Op]
    deadline_s: float
    round_s: float


# -- building blocks with known invariants ----------------------------

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


@dataclass
class FormSpec:
    """An even form built as P^t B P, with B's invariants recorded."""

    matrix: list[list[int]]
    base: list[list[int]]  # B
    signature: int
    determinant: int
    cover: list[int]  # invariant factors of coker(B), hence of coker(form)

    def twin(self, rng: random.Random, steps_per_row: int = 2) -> FormSpec:
        """Another form congruent to the same B: equal mu and cover group."""
        n = len(self.base)
        return FormSpec(congruent(self.base, unimodular(rng, n, steps_per_row * n)),
                        self.base, self.signature, self.determinant, self.cover)


def block_diag(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def unimodular(rng: random.Random, n: int, steps: int) -> list[list[int]]:
    """Product of ``steps`` random row shears x_i += +-x_j (det 1)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def congruent(b: list[list[int]], p: list[list[int]]) -> list[list[int]]:
    """P^t B P."""
    return arith.matmul(arith.transpose(p), arith.matmul(b, p))


def even_form(rng: random.Random, n: int, max_b: int = 60) -> FormSpec:
    """Even form of even size n: P^t B P with B a block sum of n // 26
    copies of +-E8, then 2 x 2 blocks, one in four hyperbolic
    H = [[0,1],[1,0]] and the rest T = [[2s,1],[1,2bs]] (s = +-1,
    max_b / 2 <= b <= max_b).

    sigma(+-E8) = +-8, det 1; sigma(H) = 0, det -1; sigma(T) = 2s and
    det T = 4b - 1 with coker Z_(4b-1).  The block counts depend on n
    alone, so forms of one size cost about the same: the cluster of
    same-size ops that holds the median stays tight across forms and seeds.
    """
    blocks: list[list[list[int]]] = []
    sig, det, orders = 0, 1, []
    for _ in range(n // 26):
        s = rng.choice((1, -1))
        blocks.append([[s * x for x in row] for row in E8])
        sig += 8 * s
    pairs = (n - 8 * len(blocks)) // 2
    for _ in range(pairs // 4):
        blocks.append([[0, 1], [1, 0]])
        det = -det
    for _ in range(pairs - pairs // 4):
        s, b = rng.choice((1, -1)), rng.randint(max_b // 2, max_b)
        blocks.append([[2 * s, 1], [1, 2 * b * s]])
        sig += 2 * s
        det *= 4 * b - 1
        orders.append(4 * b - 1)
    rng.shuffle(blocks)
    base = block_diag(blocks)
    return FormSpec(base, base, sig, det, arith.invariant_chain(orders)).twin(rng)


def rows_json(m: list[list[int]]) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _write(path: Path, data) -> str:
    """Write JSON data, or a str as it is (for malformed files)."""
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def form_expect(spec: FormSpec) -> dict:
    return {"signature": spec.signature, "determinant": spec.determinant,
            "cover": spec.cover, "dim": len(spec.matrix)}


# -- braid-knots ---------------------------------------------------------

# Letter counts of the six-strand words.  All are odd: an even word gives
# an even permutation, never a 6-cycle.  The invariants ops of seven
# 151-letter words and their mirrors form a tight cluster that holds the
# middle of the latency distribution, so the median averages over several
# inputs and does not jump between op kinds.  The 301-letter word is the
# stress shape (a 296-dimensional form); its mirror runs as ``obstruct``.
# A round takes longer than a 30-second run, so such a run holds one round.
SHORT_LENGTHS = (151,) * 7
LONG_LENGTH = 301


def knot_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """Random word whose closure is a knot (its permutation is one cycle)."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if arith.is_one_cycle(word, strands):
            return word


def braid_knots(rng: random.Random, work: Path) -> list[Op]:
    """Invariants of each short word and its mirror; invariants of the long
    word and its mirror against the trivial knot.  The checker ties the ops
    of one word together: negated signature, equal cover group, mu."""
    ops = []
    for i, length in enumerate(SHORT_LENGTHS + (LONG_LENGTH,)):
        word = knot_word(rng, 6, length)
        for mirror, letters in ((False, word), (True, [-x for x in word])):
            name = f"k{i}m" if mirror else f"k{i}"
            path = _write(work / f"{name}.json", {
                "name": name, "braid": {"strands": 6, "letters": letters}})
            if mirror and length == LONG_LENGTH:
                ops.append(Op("obstruct", ["obstruct", path, "--json"],
                              "braid-obstruct", {"pair": i, "mirror": True}))
            else:
                ops.append(Op("invariants", ["invariants", path, "--json"],
                              "braid-invariants", {"pair": i, "mirror": mirror}))
    return ops


# -- dense-forms ---------------------------------------------------------

# Rows of the P^t B P forms, and sizes of the dense random matrices for
# ``snf --full``.  The invariants and obstruct ops of fourteen 52-row forms
# form a tight cluster that holds the middle of the latency distribution,
# so the median averages over several inputs and does not jump between op
# kinds; the 60- and 80-row forms are the stress shapes.  ``snf --full``
# (about 0.2 s) runs on every fourth form, all of them 52-row ones: with
# few fast ops below the cluster, the median sits well inside it.  Whether
# the 80-row form's transforms cross Python's 4300-digit str() limit
# depends on the seed, which would make the failure count jump, so
# SNF_FORM_MAX keeps it out.  The 48-row dense matrix always crosses the limit: that
# is a known defect and stays in.  A round takes about 30 seconds, so a
# 30-second run holds one round.
FORM_SIZES = (52,) * 14 + (60, 80)
SNF_FORM_MAX = 60
DENSE_SIZES = (24, 48)
# Obstruct pairs by index into FORM_SIZES, all of 52 rows; -1 is the first
# form's twin (same B, so equal mu and cover: the torsion test runs and
# passes).
OBSTRUCT_PAIRS = ((0, -1), (2, 3), (5, 6), (9, 10))


def dense_forms(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    forms = []
    for i, n in enumerate(FORM_SIZES):
        spec = even_form(rng, n)
        path = _write(work / f"f{i}.json",
                      {"name": f"f{i}", "even_form": rows_json(spec.matrix)})
        forms.append((spec, path))
        ops.append(Op("invariants", ["invariants", path, "--json"],
                      "invariants", form_expect(spec)))
        if i % 4 == 0 and n <= SNF_FORM_MAX:
            ops.append(Op("snf-full", ["snf", "--file", _write(
                work / f"f{i}m.json", rows_json(spec.matrix)), "--full", "--json"],
                "snf-full", {"cover": spec.cover, "seed": rng.randrange(1 << 30)}))
    twin = forms[0][0].twin(rng)
    forms.append((twin, _write(work / "twin.json",
                               {"name": "twin", "even_form": rows_json(twin.matrix)})))
    for i, j in OBSTRUCT_PAIRS:
        (a, pa), (b, pb) = forms[i], forms[j]
        ops.append(Op("obstruct", ["obstruct", pa, pb, "--json"], "obstruct",
                      {"first": form_expect(a), "second": form_expect(b)}))
    for k, n in enumerate(DENSE_SIZES):
        m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        path = _write(work / f"d{k}.json", rows_json(m))
        ops.append(Op("snf-full", ["snf", "--file", path, "--full", "--json"],
                      "snf-full", {"seed": rng.randrange(1 << 30)}))
    return ops


# -- cli-small -----------------------------------------------------------

TREFOIL = [[1, 1], [0, 1]]
MIRROR_TREFOIL = [[-1, -1], [0, -1]]
FIGURE8 = [[1, 1], [0, -1]]
# (Seifert block, signature of S + S^t, det of S + S^t)
SEIFERT_BLOCKS = ((TREFOIL, 2, 3), (MIRROR_TREFOIL, -2, 3), (FIGURE8, 0, -5))

# (strands, word, signature, |det|) of small braid closures.
SMALL_BRAIDS = (
    (2, [1, 1, 1], 2, 3),
    (2, [-1, -1, -1], -2, 3),
    (3, [1, -2, 1, -2], 0, 5),
    (2, [1, 1, 1, 1, 1], 4, 5),
)


def knot_expect(sig: int, det: int | None, orders: list[int]) -> dict:
    """Invariants of a knot; det None means only |det| = order is known."""
    return {"signature": sig, "determinant": det,
            "cover": arith.invariant_chain(orders)}


def seifert_sum(rng: random.Random, blocks: int) -> tuple[list[list[int]], dict]:
    """Connected sum of small knots as P^t S P, with its invariants."""
    chosen = [rng.choice(SEIFERT_BLOCKS) for _ in range(blocks)]
    s = block_diag([c[0] for c in chosen])
    p = unimodular(rng, len(s), 2 * len(s))
    det = 1
    for c in chosen:
        det *= c[2]
    return congruent(s, p), knot_expect(
        sum(c[1] for c in chosen), det, [abs(c[2]) for c in chosen])


def small_braid(rng: random.Random) -> tuple[int, list[int], dict]:
    """A known closure, conjugated by rotation and maybe stabilized."""
    strands, word, sig, det = rng.choice(SMALL_BRAIDS)
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    if rng.random() < 0.5:
        word = word + [rng.choice((1, -1)) * strands]
        strands += 1
    return strands, word, knot_expect(sig, None, [det])


def alink_case(rng: random.Random) -> tuple[list[list[int]], int | None]:
    """A 2 x c matrix U A V with A = diag(d1, d2) padded; value or None."""
    cols = rng.randint(2, 3)
    kind = rng.randrange(4)
    d1, d2 = ((0, 0), (1, 0), (rng.randint(2, 40), 0),
              (rng.randint(2, 9), rng.randint(2, 9)))[kind]
    if kind == 3:
        d2 *= d1  # keep d1 | d2 so A is in Smith form
    a = [[d1] + [0] * (cols - 1), [0, d2] + [0] * (cols - 2)]
    m = arith.matmul(arith.matmul(unimodular(rng, 2, 3), a),
                     unimodular(rng, cols, 2 * cols))
    value = (0, 1, d1, None)[kind]
    return m, value


def hard_form(rng: random.Random, near: int) -> tuple[list[list[int]], int]:
    """[[2,1],[1,2b]] with 4b - 1 = p q, p ~ near, q ~ 3 near; p, q prime."""
    p = arith.next_prime(near + rng.randrange(near // 100), residue=1)
    q = arith.next_prime(3 * near + rng.randrange(near // 100), residue=3)
    b = (p * q + 1) // 4
    return [[2, 1], [1, 2 * b]], p * q


CATALOG = {
    "trefoil": {"mu": 2, "cover": [3]},
    "figure8": {"mu": 0, "cover": [5]},
    "poincare": {"mu": 8, "cover": []},
    "unknot": {"mu": 0, "cover": []},
}


def cli_small(rng: random.Random, work: Path) -> list[Op]:
    ops: list[Op] = []

    # Fixed ops, once per run: the batch directory and the hard-order forms.
    batch = work / "batch"
    batch.mkdir()
    records = []
    for i in range(6):
        if i % 3 == 0:
            name = rng.choice(sorted(CATALOG))
            data = {"catalog": name}
            exp = CATALOG[name]
        elif i % 3 == 1:
            s, exp = seifert_sum(rng, rng.randint(1, 3))
            data = {"seifert_matrix": rows_json(s)}
        else:
            strands, word, exp = small_braid(rng)
            data = {"braid": {"strands": strands, "letters": word}}
        _write(batch / f"b{i}.json", dict(data, name=f"b{i}"))
        records.append(exp)
    ops.append(Op("batch", ["invariants", "--batch", str(batch)], "batch",
                  {"records": records}, fixed=True))
    hard = []
    for i, near in enumerate((10 ** 20, 2 * 10 ** 20)):
        form, order = hard_form(rng, near)
        path = _write(work / f"hard{i}.json",
                      {"name": f"hard{i}", "even_form": rows_json(form)})
        spec = {"signature": 2, "determinant": order, "cover": [order], "dim": 2}
        ops.append(Op("hard-invariants", ["invariants", path, "--json"],
                      "invariants", spec, fixed=True))
        hard.append((path, spec))
    ops.append(Op("hard-obstruct", ["obstruct", hard[0][0], hard[1][0], "--json"],
                  "obstruct", {"first": hard[0][1], "second": hard[1][1]},
                  fixed=True))

    # The repeating round.
    for name in ("trefoil", "figure8", "poincare"):
        ops.append(Op("catalog", ["invariants", name, "--json"], "invariants",
                      CATALOG[name]))
    ops.append(Op("catalog-text", ["invariants", "trefoil"], "catalog-text"))
    for first, second in (("trefoil", None), ("figure8", None),
                          ("trefoil", "figure8"), ("figure8", "figure8")):
        argv = ["obstruct", first] + ([second] if second else []) + ["--json"]
        ops.append(Op("catalog-obstruct", argv, "obstruct",
                      {"first": CATALOG[first],
                       "second": CATALOG[second or "unknot"]}))
    for _ in range(3):
        s, exp = seifert_sum(rng, rng.randint(1, 3))
        ops.append(Op("inline-seifert",
                      ["invariants", json.dumps(s, separators=(",", ":")), "--json"],
                      "invariants", exp))
    for _ in range(3):
        strands, word, exp = small_braid(rng)
        ops.append(Op("braid", ["braid", *map(str, word), "--strands",
                                str(strands), "--json"], "invariants", exp))
    for k in range(4):
        m, value = alink_case(rng)
        if k % 2:
            text = json.dumps(m)
        else:
            text = " ".join(f"({a},{b})" for a, b in zip(*m))
        ops.append(Op("alink", ["alink", text, "--json"], "alink",
                      {"value": value}, exit_code=0 if value is not None else 2))
    ops.extend(malformed(rng, work))
    return ops


def malformed(rng: random.Random, work: Path) -> list[Op]:
    """Bad inputs with the exit code the CLI contract promises for them.

    The last two are ROADMAP item 5 holes: today the first dies with a
    TypeError traceback (exit 1) and the second exits 2 for a parse error.
    """
    k = rng.randint(2, 9)
    cases = [
        (["invariants", _write(work / "trunc.json", '{"braid": ')], 3),
        (["invariants", str(work / "missing.json")], 3),
        (["invariants", json.dumps([[1, k]])], 2),
        (["invariants", json.dumps([[k, 0], [0, k]])], 2),
        (["invariants", f"nosuchknot{k}"], 2),
        (["braid", "1", "1", "--strands", "2"], 2),
        (["braid", "1", f"x{k}", "--strands", "2"], 3),
        (["snf", json.dumps([[1, k], [3]])], 3),
        (["alink", json.dumps([[1], [k], [3]])], 3),
        (["snf", "--file", _write(work / "badsnf.json", "[[1, 2],")], 3),
        (["invariants", _write(work / "odd.json",
                               {"even_form": [["1", "0"], ["0", str(2 * k)]]})], 2),
        (["invariants", _write(work / "evendet.json",
                               {"even_form": [["2", "0"], ["0", str(2 * k)]]})], 2),
        (["invariants", _write(work / "hole1.json",
                               {"braid": {"strands": 3, "letters": k}})], 3),
        (["invariants", _write(work / "hole2.json",
                               {"braid": {"strands": "x", "letters": [1, 2]}})], 3),
    ]
    return [Op("malformed", argv, "malformed", exit_code=code)
            for argv, code in cases]


BUILDERS = {"braid-knots": braid_knots, "dense-forms": dense_forms,
            "cli-small": cli_small}


def generate(workload: str, seed: int, work: Path) -> Corpus:
    """Write the workload's files into the empty directory ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    return Corpus(BUILDERS[workload](rng, work), DEADLINE_S[workload],
                  ROUND_S[workload])
