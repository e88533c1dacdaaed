"""Bounded, category-tagged event log.

The paper's evaluation reasons about *sequences* — which stream won
each decision cycle, when each transfer fired, when each frame hit the
wire.  :class:`TraceLog` is a lightweight, category-tagged event log
the components can share: bounded (ring semantics so long runs don't
exhaust memory), filterable, and renderable as a text timeline for
debugging experiment drivers.

This module is the home of the legacy free-form log; the structured,
engine-emitted decision trace lives in
:mod:`repro.observability.events`.  ``repro.sim`` re-exports these
names.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence."""

    time: float
    category: str
    message: str
    data: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one attached datum."""
        for k, v in self.data:
            if k == key:
                return v
        return default


class TraceLog:
    """Bounded, category-tagged event log.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are evicted FIFO.
    enabled_categories:
        If given, only these categories are recorded (cheap filtering
        at the source).
    """

    def __init__(
        self,
        capacity: int = 100_000,
        *,
        enabled_categories: Iterable[str] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._enabled = (
            frozenset(enabled_categories) if enabled_categories else None
        )
        self._category_counts: dict[str, int] = {}
        self.dropped = 0
        self.recorded = 0

    def emit(
        self, time: float, category: str, message: str, **data: Any
    ) -> None:
        """Record one event (no-op for disabled categories)."""
        if self._enabled is not None and category not in self._enabled:
            return
        if len(self._events) == self._events.maxlen:
            evicted = self._events[0]
            self.dropped += 1
            remaining = self._category_counts.get(evicted.category, 1) - 1
            if remaining:
                self._category_counts[evicted.category] = remaining
            else:
                self._category_counts.pop(evicted.category, None)
        self._events.append(
            TraceEvent(
                time=time,
                category=category,
                message=message,
                data=tuple(sorted(data.items())),
            )
        )
        self._category_counts[category] = (
            self._category_counts.get(category, 0) + 1
        )
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self, category: str | None = None) -> list[TraceEvent]:
        """All retained events, optionally filtered by category."""
        if category is None:
            return list(self._events)
        return [e for e in self._events if e.category == category]

    def categories(self) -> dict[str, int]:
        """Retained event count per category (O(1), kept incrementally)."""
        return dict(self._category_counts)

    def between(self, start: float, end: float) -> list[TraceEvent]:
        """Events with ``start <= time < end``."""
        return [e for e in self._events if start <= e.time < end]

    def render(self, *, limit: int = 50) -> str:
        """Text timeline of the most recent ``limit`` events."""
        lines = []
        events = list(self._events)[-limit:]
        for e in events:
            extra = (
                " " + " ".join(f"{k}={v}" for k, v in e.data) if e.data else ""
            )
            lines.append(f"[{e.time:>12.3f}] {e.category:<12} {e.message}{extra}")
        if self.dropped:
            lines.append(f"... ({self.dropped} older events evicted)")
        return "\n".join(lines)

    def clear(self) -> None:
        """Discard all retained events *and* every retained counter.

        A log is routinely shared across :class:`repro.sim.engine.Simulator`
        reuses; the reset covers the ring, the eviction/recorded
        counters and the incremental per-category counts together so a
        cleared log is indistinguishable from a fresh one (no counter
        leakage between runs).
        """
        # Build-then-swap: the new state is installed in one tuple
        # assignment so no reader interleaved between statements can
        # observe a half-cleared log.
        fresh_events: deque[TraceEvent] = deque(maxlen=self._events.maxlen)
        self._events, self._category_counts, self.dropped, self.recorded = (
            fresh_events,
            {},
            0,
            0,
        )
