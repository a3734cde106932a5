"""In-memory spans around ribbonmu's layer functions, installed from outside.

The tracer wraps each layer's public functions by rebinding every
module-level name that refers to them (``ribbonmu.spinmu.determinant``,
``ribbonmu.cli.signature``, ...), so calls between layers pass through a
wrapper without any edit under ``src/``.  Spans carry name, start, end
and parent; the benchmark turns them into self times and call counts.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    maxima: Counter = field(default_factory=Counter)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration
        while self.stack and self.stack.pop() != index:
            pass

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def total(self, name: str, self_time: bool = False) -> float:
        return sum(s.self_s if self_time else s.duration
                   for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: traced minus untraced no-op calls."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    middle = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - middle - (middle - start)) / calls)


def _loops(tracer: Tracer, seifert) -> None:
    tracer.counts["braid.loops"] += seifert.size


def _transform_bits(tracer: Tracer, snf) -> None:
    bits = max((abs(x).bit_length() for m in (snf.U, snf.V)
                for row in m.entries for x in row), default=0)
    tracer.maxima["exactla.transform_bits_max"] = max(
        tracer.maxima["exactla.transform_bits_max"], bits)


# (module, function, span name, result hook).  Every module-level binding
# of the function in any ribbonmu module is rebound.
FUNCTIONS = (
    ("braid", "seifert_matrix_from_braid", "braid.seifert", _loops),
    ("exactla", "determinant", "exactla.determinant", None),
    ("exactla", "signature", "exactla.signature", None),
    ("exactla", "cokernel_invariants", "exactla.smith_for_diagonal", None),
    ("exactla", "invariant_factors", "exactla.smith_for_diagonal", None),
    ("abelian", "from_presentation", "abelian.from_presentation", None),
    ("abelian", "is_double", "abelian.is_double", None),
    ("abelian", "direct_sum", "abelian.direct_sum", None),
    ("spinmu", "validate_seifert", "spinmu.validate_seifert", None),
    ("obstruct", "obstruct_ribbon_equivalent", "obstruct.verdict", None),
    ("obstruct", "obstruct_ribbon_trivial", "obstruct.verdict", None),
    ("alink", "alinking", "alink.alinking", None),
)

# smith_normal_form is one function serving two uses: the CLI's
# ``snf --full`` keeps the transforms, alinking reads only the diagonal.
SMITH_BY_CALLER = {
    "cli": ("exactla.smith_for_transforms", _transform_bits),
    "alink": ("exactla.smith_for_diagonal", None),
}

# Static constructors that build a form's invariant record.
INVARIANT_BUILDERS = ("from_seifert", "from_even_form")


class Installation:
    """Wrappers bound into the loaded ribbonmu modules; undo with remove()."""

    def __init__(self, tracer: Tracer) -> None:
        self.undo: list[tuple[object, str, object]] = []
        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name == "ribbonmu" or name.startswith("ribbonmu.")}
        for home, fname, span, hook in FUNCTIONS:
            original = getattr(modules[home], fname)
            wrapper = tracer.wrap(span, original, hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        smith = modules["exactla"].smith_normal_form
        for caller, (span, hook) in SMITH_BY_CALLER.items():
            self._set(modules[caller], "smith_normal_form",
                      tracer.wrap(span, smith, hook))
        cls = modules["spinmu"].TwoKnotInvariants
        for attr in INVARIANT_BUILDERS:
            original = vars(cls)[attr]
            self._set(cls, attr, staticmethod(
                tracer.wrap("spinmu.invariants", original.__func__)))

    def _set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
