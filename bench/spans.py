"""Spans around the calls into each layer of ``twostage``, recorded from outside.

Names are imported by value (``from .lp import solve_lp``), so each function
is wrapped at every module attribute where a caller looks it up.  A moved or
renamed import makes a wrapper record nothing; ``REQUIRED`` turns that into a
failed traced run instead of a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name, keep arguments and result for later inspection)
HOOKS = (
    ("twostage.cli", "main", "cli.main", False),
    ("twostage.cli", "instance_from_json", "model.parse", False),
    ("twostage.cli", "contract_from_json", "model.parse", False),
    ("twostage.cli", "validate", "model.validate", False),
    ("twostage.cli", "classify", "model.classify", False),
    ("twostage.cli", "max_welfare", "welfare.max_welfare", False),
    ("twostage.contracts", "max_welfare", "welfare.max_welfare", False),
    ("twostage.contracts", "optimal_standard", "contracts.optimal_standard", True),
    ("twostage.contracts", "optimal_pay", "contracts.optimal_pay", True),
    ("twostage.contracts", "optimal_terminate", "contracts.optimal_terminate", True),
    ("twostage.contracts", "solve_lp", "lp.solve_lp", True),
    ("twostage.cli", "best_response", "agent.best_response", False),
    ("twostage.contracts", "best_response", "agent.best_response", False),
    ("twostage.linear", "best_response", "agent.best_response", False),
    ("twostage.agent", "best_response", "agent.best_response", False),
    ("twostage.cli", "simulate", "agent.simulate", True),
    ("twostage.cli", "analyze", "linear.analyze", True),
)

OPTIMIZERS = ("contracts.optimal_standard", "contracts.optimal_pay", "contracts.optimal_terminate")
_COMMON = ("cli.main", "model.parse", "model.validate", "welfare.max_welfare", "agent.best_response", "linear.analyze")
# Layers each workload's command list must reach.
REQUIRED = {
    "separation": _COMMON + ("model.classify", "lp.solve_lp") + OPTIMIZERS,
    "random_mix": _COMMON + ("model.classify", "lp.solve_lp") + OPTIMIZERS,
    "evaluate": _COMMON + ("agent.simulate",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "call")

    def __init__(self, name, start, end, parent, command, call=None):
        self.name = name
        self.start = start  # nanoseconds on the tracer's clock
        self.end = end
        self.parent = parent  # index of the enclosing span, or -1
        self.command = command  # pass number * commands per pass + index in the pass
        self.call = call  # (args, result) when the hook keeps them

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_json(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "command": self.command}


class Tracer:
    """Installs the wrappers, collects spans in memory, and removes them again."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attribute, name, keep in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, keep))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrap(self, fn, name, keep):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.command)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if keep:
                    span.call = (args, result)

        return wrapper


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start - covered_ns(children.get(i, ()), span.start, span.end)) / 1e9
        for i, span in enumerate(spans)
    ]
