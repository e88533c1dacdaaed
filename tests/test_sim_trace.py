"""Tests for the structured trace log."""

import os
import subprocess
import sys

import pytest

from repro.observability.tracelog import TraceLog


class TestDeprecatedShim:
    """The ``repro.sim.trace`` shim is gone; ``repro.sim`` re-exports
    the trace log from its canonical home, so importing it must not
    warn."""

    def test_package_import_stays_warning_free(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro.sim; repro.sim.TraceLog",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestEmit:
    def test_records_events(self):
        log = TraceLog()
        log.emit(1.0, "decide", "winner", sid=3)
        log.emit(2.0, "tx", "frame out")
        assert len(log) == 2
        assert log.events("decide")[0].get("sid") == 3
        assert log.events("decide")[0].message == "winner"

    def test_get_missing_datum(self):
        log = TraceLog()
        log.emit(0.0, "x", "m")
        assert log.events()[0].get("nope", 42) == 42

    def test_category_filtering_at_source(self):
        log = TraceLog(enabled_categories={"decide"})
        log.emit(0.0, "decide", "kept")
        log.emit(0.0, "tx", "filtered")
        assert len(log) == 1
        assert log.recorded == 1

    def test_bounded_eviction(self):
        log = TraceLog(capacity=4)
        for k in range(10):
            log.emit(float(k), "c", f"e{k}")
        assert len(log) == 4
        assert log.dropped == 6
        assert log.events()[0].time == 6.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)


class TestQueries:
    def _log(self):
        log = TraceLog()
        for k in range(10):
            log.emit(float(k), "a" if k % 2 else "b", f"e{k}")
        return log

    def test_categories(self):
        assert self._log().categories() == {"a": 5, "b": 5}

    def test_between(self):
        events = self._log().between(3.0, 6.0)
        assert [e.time for e in events] == [3.0, 4.0, 5.0]

    def test_render_contains_events(self):
        out = self._log().render(limit=3)
        assert "e9" in out and "e7" in out and "e0" not in out

    def test_render_notes_eviction(self):
        log = TraceLog(capacity=2)
        for k in range(5):
            log.emit(float(k), "c", "m")
        assert "evicted" in log.render()

    def test_clear(self):
        log = self._log()
        log.clear()
        assert len(log) == 0
        assert log.recorded == 0


class TestClearResetsRetainedCounters:
    """``clear()`` must reset *every* retained counter in one swap —
    a partially-cleared log double-counts when reused across runs."""

    def test_clear_resets_category_counts(self):
        log = TraceLog()
        log.emit(0.0, "decide", "m")
        log.emit(1.0, "miss", "m")
        log.clear()
        assert log.categories() == {}
        log.emit(2.0, "decide", "m")
        assert log.categories() == {"decide": 1}

    def test_clear_resets_eviction_count(self):
        log = TraceLog(capacity=2)
        for k in range(5):
            log.emit(float(k), "c", "m")
        assert log.dropped == 3
        log.clear()
        assert log.dropped == 0
        assert "evicted" not in log.render()

    def test_category_counts_track_eviction(self):
        log = TraceLog(capacity=2)
        log.emit(0.0, "a", "m")
        log.emit(1.0, "b", "m")
        log.emit(2.0, "b", "m")  # evicts the only "a" event
        assert log.categories() == {"b": 2}

    def test_no_leakage_across_simulator_reuse(self):
        """One TraceLog reused across two Simulator-driven runs must
        count only the second run after ``clear()`` (the regression:
        retained counters surviving the reset and double-counting)."""
        from repro.sim.engine import Simulator

        log = TraceLog()

        def run_once() -> None:
            sim = Simulator()
            for k in range(5):
                sim.schedule(
                    float(k),
                    lambda: log.emit(sim.now, "tick", "event", run=id(sim)),
                )
            sim.run()

        run_once()
        assert log.recorded == 5
        log.clear()
        run_once()
        assert log.recorded == 5
        assert log.categories() == {"tick": 5}
        assert len(log) == 5


class TestSchedulerIntegration:
    def test_decision_events_recorded(self):
        from repro.core.attributes import SchedulingMode, StreamConfig
        from repro.core.config import ArchConfig, Routing
        from repro.core.scheduler import ShareStreamsScheduler

        log = TraceLog()
        arch = ArchConfig(n_slots=2, routing=Routing.WR, wrap=False)
        s = ShareStreamsScheduler(
            arch,
            [
                StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
                for i in range(2)
            ],
            trace=log,
        )
        s.enqueue(0, deadline=5, arrival=0)
        s.enqueue(1, deadline=1, arrival=0)
        s.decision_cycle(0)
        s.enqueue(1, deadline=2, arrival=1)
        # Late heads at t=7: miss events (no drops yet).
        s.decision_cycle(7)
        # Then shed them at t=10: drop events.
        s.enqueue(0, deadline=8, arrival=8)
        s.decision_cycle(10, drop_late=True)

        decides = log.events("decide")
        assert len(decides) == 3
        assert decides[0].get("winner") == 1
        assert len(log.events("miss")) >= 1
        assert len(log.events("drop")) >= 1
        assert "decide" in log.render()
