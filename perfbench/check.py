"""Output checker: decides whether one CLI run is a success.

The checker never trusts the program's arithmetic.  Expected values come
from the corpus construction or from laws any correct answer obeys, and
are tested with :mod:`arith`.  Integers are read from the wire's decimal
strings and reported back only by bit length, so no message ever calls
``str`` on a huge int.  A checker that raises is caught by the caller
and counted as a failed op.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import arith
from corpus import Op


VERDICTS = ("obstructed-by-mu", "obstructed-by-torsion", "no-obstruction-found")


class WrongOutput(Exception):
    """The program exited as expected but printed a wrong answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def classify(op: Op, rc: int | None, out: bytes, err: bytes,
             state: dict) -> str | None:
    """None when the op succeeded, else the failure cause.

    Causes: ``deadline``, ``traceback``, ``exit <rc>`` (unexpected code),
    ``wrong: <detail>`` (bad output).  ``state`` carries facts between
    ops of one run, such as a knot's record for its mirror's check.
    """
    if rc is None:
        return "deadline"
    if b"Traceback (most recent call last)" in err:
        return "traceback"
    if rc != op.exit_code:
        return f"exit {rc}"
    # The wire carries integers of any size; lift Python's int/str digit
    # limit for the checker alone and restore it before the next op.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        RULES[op.check](op, out.decode(), err.decode(), state)
    except WrongOutput as exc:
        return f"wrong: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"wrong: unreadable output ({type(exc).__name__})"
    finally:
        sys.set_int_max_str_digits(limit)
    return None


# -- shared record checks -------------------------------------------------

def _chain(strings: list[str]) -> list[int]:
    chain = [int(s) for s in strings]
    expect(all(d >= 2 for d in chain), "invariant factor below 2")
    expect(all(b % a == 0 for a, b in zip(chain, chain[1:])),
           "invariant factors do not form a divisibility chain")
    return chain


def knot_record(rec: dict) -> tuple[int, int, list[int]]:
    """Laws every invariants record obeys; returns (signature, det, cover)."""
    sig = int(rec["signature"])
    det = int(rec["form_determinant"])
    cover = _chain(rec["h1_invariant_factors"])
    n = len(rec["form"])
    expect(int(rec["mu"]) == sig % 16, "mu is not signature mod 16")
    expect(rec["modulus"] == "16", "modulus is not 16")
    expect(abs(det) == math.prod(cover), "|det| is not the cover order")
    expect(det % 2 == 1, "cover order is even")
    expect((n - sig) % 2 == 0 and abs(sig) <= n, "signature out of range")
    expect(det == (-1) ** ((n - sig) // 2) * abs(det),
           "det sign disagrees with the signature")
    half = arith.double_half(cover)
    expect(rec["h1_is_double"] == (half is not None), "wrong doubling test")
    if half is not None:
        expect(_chain(rec["h1_double_half"]) == half, "wrong double half")
    return sig, det, cover


def expect_record(rec: dict, exp: dict) -> None:
    """An invariants record against its expected signature or mu, and cover."""
    sig, det, cover = knot_record(rec)
    if "signature" in exp:
        expect(sig == exp["signature"], f"signature {sig}, want {exp['signature']}")
    else:
        expect(int(rec["mu"]) == exp["mu"], "wrong mu")
    if exp.get("determinant") is not None:
        expect(det == exp["determinant"],
               f"determinant of {det.bit_length()} bits is wrong")
    expect(cover == exp["cover"], "wrong cover invariant factors")
    if "dim" in exp:
        expect(len(rec["form"]) == exp["dim"], "form has the wrong size")


def _mu(exp: dict) -> int:
    return exp["mu"] if "mu" in exp else exp["signature"] % 16


def expect_verdict(rec: dict, first: dict, second: dict) -> None:
    mu = (_mu(first), _mu(second))
    if mu[0] != mu[1]:
        expect(rec["conclusion"] == "obstructed-by-mu", "mu test missed")
        expect([int(m) for m in rec["mu_pair"]] == list(mu), "wrong mu pair")
        return
    combined = arith.invariant_chain(first["cover"] + second["cover"])
    if arith.double_half(combined) is None:
        expect(rec["conclusion"] == "obstructed-by-torsion", "torsion test missed")
        expect(_chain(rec["torsion_witness"]) == combined, "wrong torsion witness")
    else:
        expect(rec["conclusion"] == "no-obstruction-found",
               f"spurious obstruction {rec['conclusion']}")


# -- rules, one per Op.check ---------------------------------------------

def braid_invariants(op, out, err, state):
    rec = json.loads(out)
    sig, _, cover = knot_record(rec)
    state[(op.expect["pair"], op.expect["mirror"])] = (sig, cover)
    other = state.get((op.expect["pair"], not op.expect["mirror"]))
    if other is not None:
        expect(other[0] == -sig, "mirror signature is not negated")
        expect(other[1] == cover, "mirror cover group differs")


def braid_obstruct(op, out, err, state):
    """The mirror against the trivial knot, judged from the records of the
    knot and its mirror seen earlier in the run."""
    rec = json.loads(out)
    seen = state.get((op.expect["pair"], not op.expect["mirror"]))
    if seen is None:  # the knot's own op failed; that failure is counted
        expect(rec["conclusion"] in VERDICTS, "unknown verdict")
        return
    sig, cover = seen
    expect_verdict(rec, {"signature": -sig, "cover": cover},
                   {"signature": 0, "cover": []})


def invariants(op, out, err, state):
    expect_record(json.loads(out), op.expect)


def obstruct(op, out, err, state):
    expect_verdict(json.loads(out), op.expect["first"], op.expect["second"])


def catalog_text(op, out, err, state):
    expect("mu = 2 (mod 16)" in out, "text output lacks trefoil mu")
    expect("H1(Seifert hypersurface) = Z3" in out, "text output lacks Z3")


def alink(op, out, err, state):
    if op.expect["value"] is None:
        expect(err.startswith("error:"), "classification error not reported")
        return
    rec = json.loads(out)
    expect(int(rec["alinking"]) == op.expect["value"], "wrong alinking number")
    expect(int(rec["mod2"]) == op.expect["value"] % 2, "wrong alinking mod 2")


def batch(op, out, err, state):
    lines = out.splitlines()
    records = op.expect["records"]
    expect(len(lines) == len(records), "batch record count differs")
    for line, exp in zip(lines, records):
        expect_record(json.loads(line), exp)


def malformed(op, out, err, state):
    prefix = "parse error:" if op.exit_code == 3 else "error:"
    expect(err.startswith(prefix), f"stderr does not start with {prefix!r}")
    expect(out == "", "output printed on a failed run")


def _input_matrix(op: Op, state: dict) -> list[list[int]]:
    path = op.argv[op.argv.index("--file") + 1]
    if path not in state:
        rows = json.loads(Path(path).read_text())
        state[path] = [[int(x) for x in row] for row in rows]
    return state[path]


def snf_full(op, out, err, state):
    rec = json.loads(out)
    m = _input_matrix(op, state)
    rows, cols = len(m), len(m[0])
    d = [[int(x) for x in row] for row in rec["d"]]
    u = [[int(x) for x in row] for row in rec["u"]]
    v = [[int(x) for x in row] for row in rec["v"]]
    expect(len(d) == rows and all(len(r) == cols for r in d), "D has the wrong shape")
    expect(len(u) == rows and all(len(r) == rows for r in u), "U has the wrong shape")
    expect(len(v) == cols and all(len(r) == cols for r in v), "V has the wrong shape")
    expect(all(x == 0 for i, r in enumerate(d) for j, x in enumerate(r) if i != j),
           "D is not diagonal")
    diag = [d[i][i] for i in range(min(rows, cols))]
    expect(all(x >= 0 for x in diag), "negative Smith diagonal entry")
    expect(all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])),
           "Smith diagonal is not a divisibility chain")
    rng = random.Random(op.expect["seed"])
    expect(arith.smith_identity_holds(u, m, v, d, rng), "U*M*V != D")
    expect(arith.is_unimodular(u), "U is not unimodular")
    expect(arith.is_unimodular(v), "V is not unimodular")
    if "cover" in op.expect:
        expect([x for x in diag if x >= 2] == op.expect["cover"],
               "Smith diagonal disagrees with the form's cover group")


RULES = {
    "braid-invariants": braid_invariants,
    "braid-obstruct": braid_obstruct,
    "invariants": invariants,
    "obstruct": obstruct,
    "catalog-text": catalog_text,
    "alink": alink,
    "batch": batch,
    "malformed": malformed,
    "snf-full": snf_full,
}
