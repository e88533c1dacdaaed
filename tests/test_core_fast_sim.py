"""Cross-validation: the batch engine's periodic path vs the object model.

The Table 3 workloads (four EDF streams requested every cycle, initial
deadlines 1..4) run on :meth:`BatchScheduler.run_periodic` and must
reproduce the reference engine's counters.
"""

import numpy as np
import pytest

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import BatchScheduler
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.experiments.table3 import run_block, run_max_finding

SCALE = 500  # frames per stream for the reference runs


def _run(routing, consume, n_cycles, offsets=None):
    """Four T=1 EDF streams on a 4-slot batch engine, periodic feed."""
    arch = ArchConfig(
        n_slots=4, routing=routing, block_mode=BlockMode.MAX_FIRST, wrap=False
    )
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF) for i in range(4)
    ]
    return BatchScheduler(arch, streams).run_periodic(
        n_cycles,
        offsets=np.arange(1, 5) if offsets is None else offsets,
        step=1,
        consume=consume,
        count_misses=True,
    )


def periodic_max_finding(n_cycles, offsets=None):
    return _run(Routing.WR, "winner", n_cycles, offsets)


def periodic_block_max_first(n_cycles, offsets=None):
    return _run(Routing.BA, "block", n_cycles, offsets)


class TestMaxFindingEquivalence:
    def test_matches_object_model_counters(self):
        reference = run_max_finding(SCALE)
        fast = periodic_max_finding(4 * SCALE)
        assert fast.frames_scheduled == reference.frames_scheduled
        for i, row in enumerate(reference.rows):
            assert fast.wins[i] == row.winner_cycles
            assert fast.misses[i] == row.missed_deadlines

    def test_full_paper_scale_shape(self):
        fast = periodic_max_finding(64_000)
        assert fast.frames_scheduled == 64_000
        assert all(63_980 <= m <= 64_000 for m in fast.misses)
        assert all(15_990 <= w <= 16_010 for w in fast.wins)

    def test_offsets_validation(self):
        with pytest.raises(ValueError):
            periodic_max_finding(10, offsets=np.array([1, 2]))


class TestBlockMaxFirstEquivalence:
    def test_matches_object_model_counters(self):
        reference = run_block(BlockMode.MAX_FIRST, SCALE)
        fast = periodic_block_max_first(SCALE)
        assert fast.frames_scheduled == reference.frames_scheduled
        for i, row in enumerate(reference.rows):
            assert fast.wins[i] == row.winner_cycles
            assert fast.misses[i] == row.missed_deadlines == 0

    def test_full_paper_scale(self):
        fast = periodic_block_max_first(16_000)
        assert int(fast.misses.sum()) == 0
        assert all(3_990 <= w <= 4_010 for w in fast.wins)
        assert fast.frames_scheduled == 64_000


class TestSpeedup:
    def test_fast_path_is_meaningfully_faster(self):
        import time

        t0 = time.perf_counter()
        run_max_finding(SCALE)
        reference_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        periodic_max_finding(4 * SCALE)
        fast_s = time.perf_counter() - t0
        assert fast_s < reference_s


class TestOffsetRobustness:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        offsets=st.lists(
            st.integers(0, 40), min_size=4, max_size=4, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_max_finding_balance_any_offsets(self, offsets):
        """Table 3's even win split is not an artifact of the 1,2,3,4
        initial deadlines: any distinct offsets rotate fairly."""
        fast = periodic_max_finding(2000, offsets=np.array(offsets))
        assert fast.frames_scheduled == 2000
        assert all(abs(w - 500) <= max(offsets) + 4 for w in fast.wins)

    @given(
        offsets=st.lists(
            st.integers(1, 40), min_size=4, max_size=4, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_block_zero_misses_any_offsets(self, offsets):
        """Block max-first meets every deadline for any positive
        initial offsets (deadline >= cycle index by construction)."""
        fast = periodic_block_max_first(2000, offsets=np.array(offsets))
        assert int(fast.misses.sum()) == 0
