"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` times each layer by rebinding module-level names
in the loaded ``ribbonmu`` modules (``--trace 1``).  A rename, a deleted
import or a call that bypasses a traced name breaks or skews those
per-layer metrics without failing any other test, so this file loads
``spans.py`` as it stands (read-only), installs it, runs small commands
in process, and checks the spans each one fires and that ``remove()``
puts every binding back.
"""

import importlib.util
import io
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import ribbonmu.cli  # the tracer binds names in every ribbonmu module, cli included
from ribbonmu import spinmu
from ribbonmu.braid import E8

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

INVARIANTS = {"spinmu.invariants", "abelian.from_presentation",
              "exactla.smith_for_diagonal", "abelian.is_double"}
BRAID = INVARIANTS | {"braid.seifert"}
INLINE = INVARIANTS | {"spinmu.validate_seifert", "exactla.determinant"}
VERDICT = INVARIANTS | {"obstruct.verdict", "abelian.direct_sum"}


@pytest.fixture(scope="module")
def spans():
    """``perfbench/spans.py``, loaded without touching ``sys.path``."""
    name = "_benchmark_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # @dataclass looks its module up while the class is built
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _bindings() -> dict[tuple[object, str], object]:
    """Every attribute the tracer may rebind: module globals and the
    invariant record's constructors."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "ribbonmu"]
    owners.append(spinmu.TwoKnotInvariants)
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


@contextmanager
def installed(spans):
    """A tracer installed for the block.  ``remove()`` must then put back
    every rebound attribute by identity; whatever it misses is put back
    here, so a failure leaves the package intact for the other tests."""
    before = _bindings()
    tracer = spans.Tracer()
    try:
        installation = spans.Installation(tracer)
        assert _bindings() != before, "the tracer rebound nothing"
        yield tracer
        installation.remove()
        after = _bindings()
        assert [key for key, value in before.items() if after.get(key) is not value] == []
    finally:
        for (owner, attr), value in before.items():
            if vars(owner).get(attr) is not value:
                setattr(owner, attr, value)


# Each command, with the spans it fires at least ({braid} and {e8} are knot files).
OPS = {
    "invariants {braid}": BRAID,
    "braid 1 1 1 --strands 2": BRAID,
    "invariants {e8}": INVARIANTS,
    "invariants poincare": INVARIANTS,
    "invariants [[1,1],[0,1]]": INLINE,
    "obstruct figure8": VERDICT,
    "obstruct trefoil trefoil": VERDICT,
    "snf [[2,4],[6,8]] --full": {"exactla.smith_for_transforms"},
    "snf [[2,4],[6,8]]": {"exactla.smith_for_diagonal"},
    "alink (2,4)": {"alink.alinking", "exactla.smith_for_diagonal"},
}


@pytest.mark.parametrize("command", OPS)
def test_each_op_fires_its_spans(spans, tmp_path, command):
    knots = {"braid": {"braid": {"strands": 3, "letters": [1, -2, 1, -2]}},
             "e8": {"even_form": E8.to_lists()}}
    for key, spec in knots.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(spec))
    argv = [a.format(**{k: tmp_path / f"{k}.json" for k in knots}) for a in command.split()]
    # A span the benchmark no longer declares is not this contract's to keep.
    source = SPANS_PY.read_text(encoding="utf-8")
    fired = {name for name in OPS[command] if f'"{name}"' in source}
    with installed(spans) as tracer:
        assert ribbonmu.cli.main(argv, out=io.StringIO()) == 0
    assert fired <= {span.name for span in tracer.spans}
