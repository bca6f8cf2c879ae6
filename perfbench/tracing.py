"""Spans around the public functions of each goldenl layer, from outside the library.

A traced function is replaced at every binding that refers to it: its home
module, every goldenl module that did ``from .x import f``, and the package
namespace. Patching the home module alone would miss, for example, the calls
``flow.trace`` makes to ``word_to_vector`` through its own module globals.

Spans hold (name, start, end, parent index, item id). They stay in memory
until the run ends; self time is a span's duration minus its direct children.
Spans are recorded only while the tracer is active (the timed part of an
item). Counter hooks are queued by the wrappers and run by ``drain`` once the
item's time is taken, so their work falls inside no span and no latency.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, attribute, layer name). A dotted attribute names a method on a class.
TRACED = (
    ("goldenl.words", "word_to_vector", "words.word_to_vector"),
    ("goldenl.words", "vector_to_word", "words.vector_to_word"),
    ("goldenl.words", "reduce_word", "words.reduce_word"),
    ("goldenl.classify", "classify_all", "classify.classify_all"),
    ("goldenl.flow", "trace", "flow.trace"),
    ("goldenl.flow", "trace_direction", "flow.trace_direction"),
    ("goldenl.flow", "oracle_report", "flow.oracle_report"),
    ("goldenl.flow", "oracle_report_direction", "flow.oracle_report_direction"),
    ("goldenl.flow", "validate_trajectory_structure", "flow.validate_trajectory_structure"),
    ("goldenl.flow", "Trajectory.to_json_dict", "flow.to_json"),
    ("goldenl.render", "transported_side_events", "render.transported_side_events"),
    ("goldenl.render", "golden_l_svg", "render.golden_l_svg"),
    ("goldenl.render", "pentagon_svg", "render.pentagon"),
    ("goldenl.render", "billiard_path", "render.billiard_path"),
    ("goldenl.stats", "exact_profile", "stats.exact_profile"),
    ("goldenl.cli", "main", "cli.main"),
)


@dataclass
class Counters:
    """Exact work counts read off layer results, outside every span and item latency."""

    segments: int = 0
    cone_hits: int = 0
    closed: int = 0
    vector_bits_max: int = 0
    scale_bits_max: int = 0
    billiards: int = 0
    billiards_closed: int = 0

    def merge(self, other: dict) -> None:
        for key, value in other.items():
            if key.endswith("_max"):
                setattr(self, key, max(getattr(self, key), value))
            else:
                setattr(self, key, getattr(self, key) + value)


def _bits(*numbers) -> int:
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in numbers)


def _on_vector(counters: Counters, v) -> None:
    counters.vector_bits_max = max(counters.vector_bits_max, _bits(v.x.a, v.x.b, v.y.a, v.y.b))


def _on_trajectory(counters: Counters, t) -> None:
    counters.segments += t.segment_count
    if t.outcome.value == "closed":
        counters.closed += 1
    else:
        counters.cone_hits += 1
    den = 1
    for segment in t.segments:
        for p in segment:
            den = max(den, p.x.a.denominator, p.x.b.denominator, p.y.a.denominator, p.y.b.denominator)
    counters.scale_bits_max = max(counters.scale_bits_max, den.bit_length())


def _on_billiard(counters: Counters, path) -> None:
    counters.billiards += 1
    if path.outcome == "closed":
        counters.billiards_closed += 1


_HOOKS = {
    "words.word_to_vector": _on_vector,
    "flow.trace_direction": _on_trajectory,
    "render.billiard_path": _on_billiard,
}


def replace_everywhere(original, replacement) -> list:
    """Rebind every goldenl module attribute that is `original`; returns the undo list."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "goldenl" and not module_name.startswith("goldenl."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    item: int | None = None
    active: bool = False
    _stack: list = field(default_factory=list)
    _pending: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if hook is not None:
                pending.append((hook, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def drain(self) -> None:
        """Run the counter hooks queued since the last drain."""
        for hook, result in self._pending:
            hook(self.counters, result)
        self._pending.clear()

    def install(self) -> None:
        """Replace every goldenl binding of each traced function by its span wrapper."""
        for module_name, attr, name in TRACED:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(home, attr)
            self._undo += replace_everywhere(original, self.wrap(name, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, busy seconds (outermost spans only) and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["busy_s"] += end - start
    return out


def merge_aggregates(parts) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out
