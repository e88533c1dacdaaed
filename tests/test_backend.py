"""Unit coverage for the engine-backend dispatch layer.

Exercises :mod:`repro.core.backend` directly — registry resolution,
the rejection of every name outside ``numpy``/``numba``, the per-op
forwarders of :class:`NumpyBackend` — plus the ``engine_backend=``
guards on the engine factories.  The numba kernels' byte-identity
contract lives in ``tests/test_jit_equivalence.py``; this file covers
the plumbing.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import jit
from repro.core.backend import (
    BackendUnavailable,
    NumbaBackend,
    NumpyBackend,
    resolve_backend,
)
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig
from repro.core.differential import campaign
from repro.core.tensor_engine import CampaignEngine


class TestRegistry:
    def test_numpy_resolves_and_caches(self):
        bk = resolve_backend("numpy")
        assert isinstance(bk, NumpyBackend)
        assert bk.name == "numpy"
        assert resolve_backend("numpy") is bk

    def test_default_is_numpy(self):
        assert resolve_backend().name == "numpy"

    def test_instance_passes_through(self):
        bk = NumpyBackend()
        assert resolve_backend(bk) is bk

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("tensorflow")

    @pytest.mark.parametrize(
        "name", ["torch", "cupy", "array_api_strict", "jax"]
    )
    def test_only_numpy_and_numba_accepted(self, name):
        """Every entry point rejects a name outside ``numpy, numba``."""
        arch = ArchConfig(n_slots=4)
        for build in (
            lambda: resolve_backend(name),
            lambda: CampaignEngine(arch, n_scenarios=1, engine_backend=name),
            lambda: make_scheduler(arch, engine="tensor", engine_backend=name),
            lambda: campaign(range(2), n_cycles=10, engine="tensor",
                             engine_backend=name),
        ):
            with pytest.raises(ValueError, match="numpy, numba"):
                build()
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.core.differential",
             "--engine-backend", name],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--engine-backend" in proc.stderr

    @pytest.mark.skipif(
        jit.NUMBA_AVAILABLE, reason="numba installed on this host"
    )
    def test_missing_library_hint_names_install_step(self):
        with pytest.raises(BackendUnavailable, match="pip install"):
            NumbaBackend()


class TestGenericWrapper:
    """The per-op forwarders the tensor engine calls through."""

    @pytest.fixture()
    def bk(self):
        return NumpyBackend()

    def test_argsort_stable_preserves_tie_order(self, bk):
        keys = bk.asarray([[1, 0, 1, 0, 1, 0]], dtype=bk.int64)
        order = bk.argsort_stable(keys)
        assert order.tolist() == [[1, 3, 5, 0, 2, 4]]

    def test_take_along_last_matches_numpy(self, bk):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 100, size=(3, 8))
        idx = rng.integers(0, 8, size=(3, 8))
        got = bk.take_along_last(arr, idx)
        np.testing.assert_array_equal(got, np.take_along_axis(arr, idx, -1))

    def test_interleave_pairs_is_perfect_shuffle_writeback(self, bk):
        lo = bk.asarray([[0, 2, 4]], dtype=bk.int64)
        hi = bk.asarray([[1, 3, 5]], dtype=bk.int64)
        assert bk.interleave_pairs(lo, hi).tolist() == [[0, 1, 2, 3, 4, 5]]

    def test_where_and_minimum_tolerate_python_scalars(self, bk):
        arr = bk.asarray([1, 5, 9], dtype=bk.int64)
        cond = bk.asarray([True, False, True], dtype=bk.bool_)
        assert bk.where(cond, 0, arr).tolist() == [0, 5, 0]
        assert bk.where(cond, arr, 7).tolist() == [1, 7, 9]
        assert bk.minimum(arr, 5).tolist() == [1, 5, 5]

    def test_host_reductions(self, bk):
        arr = bk.asarray([[4, 2, 9]], dtype=bk.int64)
        assert bk.min_int(arr) == 2
        assert bk.any(arr > 8) is True
        assert bk.any(arr > 9) is False
        assert bk.argmax_last(arr).tolist() == [2]
        assert bk.flip_last(arr).tolist() == [[9, 2, 4]]


class TestEngineGuards:
    """Non-tensor engines reject the numba backend loudly."""

    @pytest.mark.parametrize("engine", ["reference", "batch"])
    def test_make_scheduler_rejects_non_numpy(self, engine):
        with pytest.raises(ValueError, match="NumPy-only"):
            make_scheduler(
                ArchConfig(n_slots=4), engine=engine, engine_backend="numba"
            )

    def test_make_scheduler_tensor_accepts_instance(self):
        sched = make_scheduler(
            ArchConfig(n_slots=4),
            engine="tensor",
            engine_backend=NumbaBackend(force_interpreted=True),
        )
        assert sched.engine_backend == "numba"

    def test_campaign_rejects_non_tensor_backend(self):
        with pytest.raises(ValueError, match="requires engine='tensor'"):
            campaign(range(2), n_cycles=10, engine="batch",
                     engine_backend="numba")
