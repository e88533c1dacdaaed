import json
from pathlib import Path

import run
from tracer import Tracer
from workloads import WORKLOADS, Rep

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_workloads_match():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_what_a_traced_run_prints():
    bench = json.loads(BENCHMARK.read_text())
    rep = Rep(units=10, phase_s=1.0, timed_s=1.0, attempted=1, failed=0, digest="")
    sample = run.Sample(setup_s=1.0, setup_raw_s=1.0, rep=rep, scale=1.0)
    metrics = run.per_layer_metrics(Tracer(), [sample], [sample], {}, coverage=1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()
    }


def test_end_to_end_bounds():
    bench = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    assert names == ["setup_s", "throughput_per_s", "peak_rss_mb"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


class Steady:
    """Reps that all repeat the first, or whose digest changes on ``flaky``."""

    def __init__(self, flaky=0):
        self.flaky, self.reps = flaky, 0

    def setup(self, seed, tracer):
        return None

    def run(self, state, tracer):
        self.reps += 1
        return Rep(
            units=1, phase_s=1.0, timed_s=1.0, attempted=5, failed=0,
            digest="b" if self.reps == self.flaky else "a", sim={"x": 1.0}, missed=1,
        )


def measure(workload, seconds, monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REFERENCE_S)
    return run.measure(workload, seed=0, seconds=seconds, tracer=None,
                       boundary=run.CAL_REFERENCE_S)


def test_a_rep_that_does_not_repeat_the_first_fails_one_check(monkeypatch):
    result = measure(Steady(flaky=3), 0.0, monkeypatch)
    assert len(result.plain) == run.MIN_REPS == 3
    assert (result.attempted, result.failed, result.missed) == (5 + 1, 1, 1)


def test_check_counts_do_not_depend_on_the_number_of_reps(monkeypatch):
    few = measure(Steady(), 0.0, monkeypatch)
    many = measure(Steady(), 0.01, monkeypatch)
    assert len(many.plain) > len(few.plain)
    assert (few.attempted, few.failed, few.missed) == (5 + 1, 0, 1)
    assert (many.attempted, many.failed, many.missed) == (few.attempted, few.failed, few.missed)
