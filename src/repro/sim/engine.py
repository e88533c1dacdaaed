"""Minimal discrete-event simulation engine.

The endsystem and line-card realizations are concurrent systems — a
queue manager filling per-stream queues, a streaming unit batching
arrival times over PCI, the FPGA scheduler making decisions, and
transmission-engine threads draining scheduled streams to the network
(Figure 3).  This engine provides the event loop they share: a
time-ordered heap of callbacks with deterministic FIFO ordering among
simultaneous events.

The loop is a hot path: a timed-arrival endsystem run pre-schedules
one arrival event per frame and adds one service event per transmitted
frame, so the heap holds thousands of events.  It therefore stores
``(time, seq, event)`` tuples: every heap comparison runs in C on the
``(time, seq)`` prefix, and since ``seq`` is unique an :class:`Event`
(or its callback) is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "Simulator"]


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback; orderable by (time, sequence)."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap)."""
        self.cancelled = True


class Simulator:
    """Event-driven simulation clock.

    Time units are whatever the caller adopts consistently; the
    endsystem experiments use microseconds.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_run = 0

    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    @property
    def events_run(self) -> int:
        """Total events executed so far."""
        return self._events_run

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns False when nothing is queued."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            self._events_run += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self, until: float | None = None, *, max_events: int | None = None
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies past this time (the clock is
            then advanced to ``until``).
        max_events:
            Safety valve against runaway feedback loops.
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}"
                )
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until:
            self.now = until
