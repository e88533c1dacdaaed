"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(9.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(1.0, log.append, 2)
        sim.schedule(1.0, log.append, 3)
        sim.run()
        assert log == [1, 2, 3]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_rejects_past(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, log.append, "x")
        event.cancel()
        sim.run()
        assert log == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert log == ["early", "late"]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert not sim.step()

    def test_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.events_run == 2
        assert sim.pending == 0

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.peek_time() == 2.0


class TestHeapRegressions:
    def test_cancelled_event_skipped_by_step_and_peek(self):
        sim = Simulator()
        log = []
        first = sim.schedule(1.0, log.append, "cancelled")
        sim.schedule(2.0, log.append, "live")
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.step()
        assert log == ["live"]
        assert sim.now == 2.0
        assert not sim.step()
        assert sim.peek_time() is None

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a").cancel()
        sim.schedule(1.0, log.append, "b")
        assert sim.step()
        assert log == ["b"]
        assert sim.events_run == 1

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(5)]
        events[1].cancel()
        events[3].cancel()
        assert sim.pending == 3
        sim.run(until=2.5)
        assert sim.pending == 1
        assert sim.events_run == 2

    def test_fifo_among_equal_float_times(self):
        sim = Simulator()
        log = []
        t = 0.1 + 0.2  # not exactly representable: still equal keys
        for i in range(50):
            sim.schedule_at(t, log.append, i)
        sim.schedule_at(0.30000000000000004, log.append, "same-float")
        sim.run()
        assert log == list(range(50)) + ["same-float"]

    def test_equal_times_never_compare_callbacks(self):
        class Unorderable:
            def __call__(self):
                log.append(self)

            def __lt__(self, other):
                raise AssertionError("callbacks must not be compared")

            __gt__ = __le__ = __ge__ = __lt__

        sim = Simulator()
        log = []
        callbacks = [Unorderable() for _ in range(20)]
        for cb in callbacks:
            sim.schedule(1.0, cb)
        sim.run()
        assert log == callbacks
