"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload endsystem_bursty --seed 1 \\
        --seconds 30 --trace 0

The run repeats the workload (set-up, then the timed phases, then the
output checks) until ``--seconds`` have passed and at least
``MIN_REPS`` reps are done, and reports medians over the reps.  With
``--trace 1`` every second rep is traced and the run prints the
per-layer metrics and the tracing overhead instead.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import compileall
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Pin BLAS and OpenMP pools before NumPy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pins)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_REPS = 3
#: Fresh-process imports timed per run; set-up counts the least of them,
#: since host noise only ever adds time.
IMPORT_SAMPLES = 9
CAL_SAMPLES = 3
#: Median time of :func:`calibration_loop` on the reference host.  Host
#: times are reported at that host's speed: each is scaled by
#: ``CAL_REFERENCE_S / c``, where ``c`` is the loop's median time around
#: the measurement on this host.
CAL_REFERENCE_S = 0.026

#: Per-layer entry points and the statistics reported for each.
LAYERS = {
    "endsystem.refill_all": ("calls", "self_s", "p50_us", "p99_us"),
    "endsystem.transmit": ("calls", "self_s", "p50_us", "p99_us"),
    "endsystem.produce": ("calls", "self_s"),
    "core.scheduler.decision_cycle": ("calls", "self_s", "p50_us", "p99_us"),
    "core.differential.generate_scenario": ("calls", "self_s"),
    "core.differential.run_bucket": ("calls", "self_s"),
    "core.differential.run_engine": ("calls", "self_s"),
    "core.differential.compare": ("self_s",),
    "core.tensor_engine.decision_cycle_all": ("calls", "self_s", "p50_us", "p99_us"),
    "core.tensor_engine.enqueue": ("calls", "self_s"),
    "aggregation.join": ("calls", "self_s", "p99_us"),
    "aggregation.leave": ("calls", "self_s", "p99_us"),
    "aggregation.submit": ("calls", "self_s", "p99_us"),
    "aggregation.decision_cycle": ("calls", "self_s", "p50_us", "p99_us"),
    "disciplines.pifo.submit": ("calls", "self_s"),
    "disciplines.pifo.service": ("calls", "self_s"),
    "core.batch_engine.decision_cycle": ("calls", "self_s", "p50_us", "p99_us"),
    "core.batch_engine.enqueue": ("calls", "self_s"),
}
#: Counted or simulated per-layer results, with their units; 0 where a
#: workload has none.
COUNTS = {
    "sim_cycles_per_packet": "cycles",
    "sim.events": "count",
    "endsystem.sram_switches": "count",
    "endsystem.pci_words": "count",
    "core.scheduler.idle_ratio": "ratio",
    "core.differential.rows_per_bucket": "count",
    "core.tensor_engine.fast_forward_ratio": "ratio",
    "aggregation.packets_per_decision": "ratio",
    "aggregation.backlog_max": "count",
    "sim_delay_p50_us": "us",
    "sim_delay_p99_us": "us",
    "share_error": "ratio",
}
UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}


@dataclass
class Sample:
    """One rep, its set-up time and the host speed around its run."""

    setup_s: float  # at the reference speed
    setup_raw_s: float  # as timed
    rep: object
    #: reference-host seconds per second measured here, for ``rep``
    scale: float


def median(samples, key) -> float:
    return statistics.median(key(x) for x in samples)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds(modules: tuple[str, ...]) -> float:
    """Least time to import the workload's modules in a fresh process."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        f"import numpy, {', '.join(modules)}\n"
        "print(time.perf_counter() - t)\n"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=False,
        )
        if done.returncode != 0:
            fail(f"cannot import the program: {done.stderr.strip()[-300:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return min(samples)


def calibration_loop() -> int:
    """Fixed work like the program's: Python dicts, a heap and calls,
    NumPy calls on 64-element arrays, and sorts of 1,024 elements."""
    heap: list[int] = []
    counts: dict[int, int] = {}
    total = 0
    for i in range(15_000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, key)
        total += max(key, i & 255)
    while heap:
        total ^= heapq.heappop(heap)
    small = np.arange(64, dtype=np.int64)[::-1].copy()
    for i in range(800):
        order = np.argsort(small, kind="stable")
        total += int(order[0]) + int(np.where(small > (i & 63), small, 0).sum())
    large = (np.arange(1024, dtype=np.int64) * 40_503) % 65_521
    for i in range(300):
        order = np.argsort(large, kind="stable")
        total += int(np.take(large, order[:8]).sum()) + int(np.where(large > i, large, 0).sum())
    return total


def calibrate() -> float:
    """Median seconds of :func:`calibration_loop` on this host, now."""
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class Run:
    """The reps of one run and what their checks found."""

    plain: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    sim: dict | None = None
    digest: str | None = None
    #: output checks failed, and the paper's share bands missed
    failed: int = 0
    missed: int = 0
    attempted: int = 0
    #: summed span self time over timed-phase time, in the traced reps
    coverage: float = 0.0


def measure(workload, seed: int, seconds: float, tracer, boundary: float) -> Run:
    """Repeat the workload for ``seconds`` (at least ``MIN_REPS`` times).

    With a tracer every second rep is traced.  ``boundary`` is the
    calibration taken just before the first rep.
    """
    run = Run()
    span_s = timed_s = 0.0
    first, repeated = None, True
    start = time.perf_counter()
    while len(run.plain) + len(run.traced) < MIN_REPS + (tracer is not None) or (
        time.perf_counter() - start < seconds
    ):
        rep_tracer = tracer if len(run.plain) > len(run.traced) else None
        try:
            t0 = time.perf_counter()
            state = workload.setup(seed, rep_tracer)
            setup_s = time.perf_counter() - t0
            setup_spans = rep_tracer.span_self_s() if rep_tracer else 0.0
            middle = calibrate()
            rep = workload.run(state, rep_tracer)
        finally:
            if rep_tracer is not None:
                rep_tracer.restore()
        del state
        after = calibrate()
        setup_scale = CAL_REFERENCE_S / statistics.mean((boundary, middle))
        scale = CAL_REFERENCE_S / statistics.mean((middle, after))
        boundary = after
        if rep_tracer is not None:
            span_s += rep_tracer.span_self_s() - setup_spans
            timed_s += rep.timed_s
        (run.traced if rep_tracer else run.plain).append(
            Sample(setup_s * setup_scale, setup_s, rep, scale)
        )
        outcome = (rep.sim, rep.digest, rep.attempted, rep.failed, rep.missed)
        if first is None:
            first = outcome
            run.sim, run.digest = rep.sim, rep.digest
            run.attempted, run.failed, run.missed = rep.attempted, rep.failed, rep.missed
        else:
            repeated = repeated and outcome == first
    # Every rep runs the same inputs, so the checks count once per seed,
    # not once per rep: how many reps fit in ``seconds`` depends on the
    # host, and the counts must not.  One more check: every later rep
    # repeated the first one's simulated results, service order and
    # check outcomes exactly.
    run.attempted += 1
    run.failed += not repeated
    run.coverage = span_s / timed_s if timed_s else 0.0
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the full run record here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"program sources not found under {SRC.name}/")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    # Byte-compile first so that no measured import pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    before = calibrate()
    import_s = import_seconds(workload.imports)
    for module in workload.imports:
        __import__(module)

    tracer = Tracer() if args.trace else None
    boundary = calibrate()
    import_raw = import_s
    import_s *= CAL_REFERENCE_S / statistics.mean((before, boundary))
    run = measure(workload, args.seed, args.seconds, tracer, boundary)
    plain, traced, sim = run.plain, run.traced, run.sim
    failed, attempted = run.failed + run.missed, run.attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    throughput = median(plain, lambda x: x.rep.units / (x.rep.phase_s * x.scale))
    setup = import_s + median(plain, lambda x: x.setup_s)
    # The same figures without the host-speed scaling.
    raw = {
        "setup_s": import_raw + median(plain, lambda x: x.setup_raw_s),
        "throughput_per_s": median(plain, lambda x: x.rep.units / x.rep.phase_s),
    }
    info = {k: median(plain, lambda x, k=k: x.rep.info[k] / x.scale) for k in plain[0].rep.info}

    print(f"workload {workload.name}  seed {args.seed}  reps {len(plain)} untraced"
          f" + {len(traced)} traced  digest {plain[0].rep.digest}")
    print("  host speed against the reference: "
          + " ".join(f"{x.scale:.3f}" for x in plain))
    print("  throughput_per_s as timed, by rep: "
          + " ".join(f"{x.rep.units / x.rep.phase_s:.1f}" for x in plain))
    print(f"  at reference speed: import_s {import_s:.4f}  setup_s {setup:.4f}"
          f"  throughput_per_s {throughput:.1f} ({workload.unit} per second)")
    for key, value in info.items():
        print(f"  {key} {value:.1f}")
    print(f"  error_rate {failed / attempted:.3g} ({failed} of {attempted} checks failed:"
          f" {run.failed} output checks, {run.missed} share bands)")
    for key, value in sim.items():
        print(f"  {key} {value:.6g}")

    if args.trace:
        metrics = per_layer_metrics(tracer, plain, traced, sim, run.coverage)
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        # A missed share band is a failed check but not a wrong output.
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "digest": plain[0].rep.digest, "info": info, "sim": sim,
            "result": result, "raw": raw,
        }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def per_layer_metrics(tracer, plain, traced, sim, coverage: float) -> dict:
    """Per-layer metrics of the traced reps and the tracing overhead.

    Span times are scaled to the reference speed by the traced reps'
    median host-speed scale.  ``coverage`` is the spans' summed self time over the traced reps'
    timed-phase time.
    """
    metrics = {}
    scale = median(traced, lambda x: x.scale)
    for name, stats in LAYERS.items():
        summary = tracer.summary(name, len(traced))
        for stat in ("self_s", "p50_us", "p99_us"):
            summary[stat] *= scale
        for stat in stats:
            metrics[f"{name}.{stat}"] = {"value": summary[stat], "unit": UNITS[stat]}
        if summary["calls"]:
            print(f"  {name}: calls {summary['calls']:.0f}  self_s {summary['self_s']:.4f}"
                  f"  p50_us {summary['p50_us']:.1f}  p99_us {summary['p99_us']:.1f}")
    metrics["sim.run.self_s"] = {
        "value": tracer.summary("sim.run", len(traced))["self_s"] * scale, "unit": "s",
    }
    for name, unit in COUNTS.items():
        metrics[name] = {"value": float(sim.get(name, 0.0)), "unit": unit}

    def per_unit(x: Sample) -> float:
        return x.rep.phase_s * x.scale / x.rep.units

    metrics["trace.overhead_ratio"] = {
        "value": median(traced, per_unit) / median(plain, per_unit), "unit": "ratio",
    }
    metrics["trace.setup_overhead_ratio"] = {
        "value": median(traced, lambda x: x.setup_s)
        / median(plain, lambda x: x.setup_s),
        "unit": "ratio",
    }
    metrics["trace.span_coverage"] = {"value": coverage, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
