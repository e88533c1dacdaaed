"""Span tracing applied from outside the program.

The tracer replaces public entry points with timing wrappers.  It wraps
the attribute on an instance when the benchmark holds the instance, and
on the class (or module) when the instances are created inside the
program or when ``__slots__`` forbids instance attributes, as on the
aggregation tier's core.  Every patch is undone by :meth:`Patcher.restore`.

Spans are not kept as objects.  Each layer keeps a call count, its
summed self time and an ``array('d')`` of per-call durations, so a
million traced joins cost one float each.  A layer's self time is its
span time minus the part of that span covered by its direct children;
coverage is the union of the child intervals, so nested or overlapping
children are never subtracted twice.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

#: A percentile ``q`` is reported only when at least this many samples
#: lie beyond it.
TAIL_SAMPLES = 10


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``TAIL_SAMPLES`` beyond ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError("percentile must lie strictly between 0 and 1")
    return math.ceil(round(TAIL_SAMPLES / (1.0 - q), 9))


def percentile(samples, q: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when too few samples.

    ``None`` means fewer than :func:`min_samples` values, so the tail
    would rest on fewer than ``TAIL_SAMPLES`` observations.
    """
    n = len(samples)
    if n < min_samples(q):
        return None
    rank = min(n - 1, math.ceil(q * n) - 1)
    return float(np.partition(np.asarray(samples, dtype=np.float64), rank)[rank])


def covered(start: float, end: float, children) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_time(start: float, end: float, children) -> float:
    """Span time minus the time its child spans cover."""
    return (end - start) - covered(start, end, children)


class Layer:
    """Accumulated spans of one named entry point."""

    __slots__ = ("calls", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original)``."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer(Patcher):
    """Timing wrappers with self time and per-call durations.

    Calls are single-threaded and properly nested, so each open span is
    a ``[start, covered]`` frame on a stack, and the direct children of
    a span never overlap: their union, which :func:`covered` computes in
    general, is the sum of their durations.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        self._stack: list[list[float]] = []

    def layer(self, name: str) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer()
        return found

    def span_self_s(self) -> float:
        """Self time summed over every layer so far."""
        return sum(layer.self_s for layer in self.layers.values())

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as layer ``name``."""
        layer = self.layer(name)
        stack = self._stack
        clock = self.clock

        def make(fn):
            def traced(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    layer.calls += 1
                    layer.self_s += duration - frame[1]
                    layer.durations.append(duration)
                    if stack:
                        stack[-1][1] += duration

            return traced

        self.patch(owner, attr, make)

    def summary(self, name: str, reps: int) -> dict[str, float]:
        """``calls``/``self_s`` per rep and per-call ``p50_us``/``p99_us``.

        A layer that was never called reads 0 throughout.  When a
        percentile has too few samples behind it the largest sample is
        reported instead, an upper bound on the percentile.
        """
        layer = self.layers.get(name, Layer())
        out = {
            "calls": layer.calls / reps,
            "self_s": layer.self_s / reps,
        }
        for q, key in ((0.5, "p50_us"), (0.99, "p99_us")):
            value = percentile(layer.durations, q)
            if value is None:
                value = max(layer.durations, default=0.0)
            out[key] = value * 1e6
        return out
