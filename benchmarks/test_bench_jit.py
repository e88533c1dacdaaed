"""Compiled-vs-NumPy sweep for the fused decision-cycle kernels.

The ``numba`` backend (:mod:`repro.core.jit`) fuses the tensor
engine's per-cycle phases into one whole-run driver that executes K
decision cycles without returning to Python.  This benchmark times the
*identical* periodic EDF campaign on the NumPy array path and on the
kernel path across the S x N shape grid, records both rates and the
speedup ratios, and asserts the crossover claim the JIT work was sized
against: at ``S=1, N=8`` — where per-cycle array-dispatch overhead
dominates and the array path degenerates to dozens of tiny NumPy calls
per cycle — the fused driver must win by at least 3x.  First-call compilation
(``cache=True`` warmup) is excluded by running a throwaway campaign
before the timed one.

When numba is not installed the kernels run interpreted
(``NumbaBackend(force_interpreted=True)``, semantically identical to
``NUMBA_DISABLE_JIT=1``).  The small-shape assertion still holds —
one fused Python loop beats per-cycle NumPy dispatch at S=1, N=8 —
while large shapes legitimately favor the array path; each record's
``mode`` metadata says which flavor produced it, so trend comparisons
never silently mix compiled and interpreted rates.

Results land in ``BENCH_JIT.json`` via the shared ``write_bench``
envelope and fold into ``repro bench trend`` like every other bench
artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _schema import bench_record, write_bench
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.backend import NumbaBackend
from repro.core.config import ArchConfig, Routing
from repro.core.jit import NUMBA_AVAILABLE
from repro.core.tensor_engine import CampaignEngine

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_JIT.json"

SCENARIO_COUNTS = (1, 8, 64)
SLOT_COUNTS = (8, 32, 128)

#: Timed decision cycles per slot count.  Scaled down as N grows so
#: the interpreted-mode sweep (numba absent) stays bounded — the
#: insertion-sort cascade is O(N^2) per row per cycle in pure Python.
#: The recorded unit is a *rate*, so shorter runs stay comparable.
_CYCLES = {8: 300, 32: 80, 128: 12}
_WARMUP = 8

#: The crossover claim under test: fused driver vs array path at the
#: smallest shape, where per-cycle dispatch overhead dominates.
_ASSERT_SHAPE = (1, 8)
_ASSERT_MIN_SPEEDUP = 3.0

_MODE = "compiled" if NUMBA_AVAILABLE else "interpreted"


def _arch_streams(n_slots: int) -> tuple[ArchConfig, list[StreamConfig]]:
    # Single-chip slot budget is 32; the N=128 column exercises the
    # extended multi-chip composition (Table 3 scaling row).
    arch = ArchConfig(
        n_slots=n_slots,
        routing=Routing.WR,
        wrap=False,
        extended=n_slots > 32,
    )
    streams = [
        StreamConfig(
            sid=i, period=1, mode=SchedulingMode.EDF,
            extended=n_slots > 32,
        )
        for i in range(n_slots)
    ]
    return arch, streams


def _run(backend, s_count: int, n_slots: int, cycles: int):
    """One timed campaign run; returns (rate, per-stream win counts)."""
    arch, streams = _arch_streams(n_slots)
    engine = CampaignEngine(
        arch, [list(streams) for _ in range(s_count)], engine_backend=backend
    )
    engine.run_periodic(_WARMUP, step=1)  # warmup: JIT compile + caches
    engine = CampaignEngine(
        arch, [list(streams) for _ in range(s_count)], engine_backend=backend
    )
    start = time.perf_counter()
    results = engine.run_periodic(cycles, step=1)
    rate = s_count * cycles / (time.perf_counter() - start)
    return rate, np.stack([r.wins for r in results])


def test_jit_speedup_sweep(report):
    jit_backend = (
        NumbaBackend() if NUMBA_AVAILABLE
        else NumbaBackend(force_interpreted=True)
    )

    records = []
    rows = []
    speedups: dict[tuple[int, int], float] = {}
    for n in SLOT_COUNTS:
        for s in SCENARIO_COUNTS:
            cycles = _CYCLES[n]
            numpy_rate, numpy_wins = _run("numpy", s, n, cycles)
            jit_rate, jit_wins = _run(jit_backend, s, n, cycles)
            np.testing.assert_array_equal(
                jit_wins, numpy_wins,
                err_msg=f"jit path diverged at S={s} N={n}",
            )
            speedup = jit_rate / numpy_rate
            speedups[(s, n)] = speedup
            records.append(
                bench_record(
                    f"numpy_ops.s{s}n{n}",
                    numpy_rate, "scenario-cycles/s",
                    scenarios=s, slots=n, direction="higher",
                )
            )
            records.append(
                bench_record(
                    f"jit_ops.{_MODE}.s{s}n{n}",
                    jit_rate, "scenario-cycles/s",
                    mode=_MODE, numba=NUMBA_AVAILABLE,
                    scenarios=s, slots=n, direction="higher",
                )
            )
            records.append(
                bench_record(
                    f"jit_vs_numpy.{_MODE}.s{s}n{n}",
                    speedup, "ratio",
                    mode=_MODE, numba=NUMBA_AVAILABLE,
                    scenarios=s, slots=n, direction="higher",
                )
            )
            rows.append(
                f"S={s:>3} N={n:>3}  numpy {numpy_rate:>10,.0f}  "
                f"{_MODE} {jit_rate:>10,.0f}  ({speedup:>5.2f}x)"
            )
    rows.append(
        f"mode: {_MODE} (numba {'installed' if NUMBA_AVAILABLE else 'absent'}"
        "); warmup campaign excluded from every timing"
    )

    write_bench(
        OUTPUT,
        "jit",
        records,
        workload="periodic EDF feed, fused whole-run kernel driver vs "
        "NumPy array path, per (S, N) shape",
    )
    report(
        f"JIT crossover ({_MODE}): scenario-cycles/s by (S, N)",
        "\n".join(rows),
    )

    s, n = _ASSERT_SHAPE
    assert speedups[(s, n)] >= _ASSERT_MIN_SPEEDUP, (
        f"fused driver managed only {speedups[(s, n)]:.2f}x over the "
        f"NumPy path at S={s} N={n} (claim: >= {_ASSERT_MIN_SPEEDUP}x)"
    )
