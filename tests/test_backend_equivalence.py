"""The backend byte-identity contract, enforced by property testing.

Two layers of proof that the array-API refactor changed nothing:

* :func:`repro.core.tensor_engine.table2_rank_order` — the packed-key
  stable-sort cascade that replaced ``np.lexsort`` — must produce the
  *permutation-identical* order to the original lexsort over the full
  Table 2 key cascade, including deadline/arrival ties, loss-constraint
  ratio ties (``1/2`` vs ``2/4``), zero-wildcard streams and
  invalid-slot masking.  The lexsort reference is reconstructed here
  verbatim from the pre-refactor ``_rank`` so the property pins the
  historical behavior, not the new implementation.

* Whole-engine runs — bucketed differential scenarios and periodic
  feeds — must yield byte-identical observables on every available
  backend.  The generic :class:`~repro.core.backend.ArrayApiBackend`
  wrapped around NumPy's namespace always runs (it exercises the
  standard-only code path the optional libraries use); torch/CuPy legs
  run when installed, otherwise skip with the availability reason.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import (
    ArrayApiBackend,
    available_backends,
    resolve_backend,
)
from repro.core.batch_engine import window_key_table
from repro.core.differential import generate_scenario, run_bucket
from repro.core.tensor_engine import CampaignEngine, table2_rank_order
from tests.strategies import bucketed, random_arch_streams

_AVAILABLE = available_backends()


def _backend_params():
    """One param per non-default backend: generic always, libs gated."""
    params = [pytest.param("generic", id="generic-array-api")]
    for name in ("torch", "cupy", "array_api_strict"):
        reason = _AVAILABLE[name]
        marks = (
            [pytest.mark.skip(reason=reason)] if reason is not None else []
        )
        params.append(pytest.param(name, id=name, marks=marks))
    return params


def _resolve(name: str) -> ArrayApiBackend:
    if name == "generic":
        return ArrayApiBackend(np, name="generic")
    return resolve_backend(name)


def _lexsort_reference(invalid, dl, arr, x, y, *, deadline_only):
    """The pre-refactor ``_rank`` key cascade, verbatim."""
    n = dl.shape[-1]
    sid = np.broadcast_to(np.arange(n, dtype=np.int64), dl.shape)
    if deadline_only:
        return np.lexsort((sid, arr, dl, invalid), axis=-1)
    zero_wc = (x == 0) | (y == 0)
    wc = np.where(zero_wc, 0.0, x / np.where(y == 0, 1, y))
    den_key = np.where(zero_wc, -y, 0)
    num_key = np.where(zero_wc, 0, x)
    return np.lexsort(
        (sid, arr, num_key, den_key, wc, dl, invalid), axis=-1
    )


# Tight value ranges force heavy tie pressure: with 8 slots drawing
# deadlines from 9 values and ratios from {0..3}/{0..3}, most examples
# contain multi-way ties on every key level.
_key_arrays = st.integers(min_value=1, max_value=6).flatmap(
    lambda s: st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "dl": st.lists(
                    st.lists(
                        st.integers(min_value=-4, max_value=4),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "arr": st.lists(
                    st.lists(
                        st.integers(min_value=-4, max_value=4),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "x": st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=3),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "y": st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=3),
                        min_size=n, max_size=n,
                    ),
                    min_size=s, max_size=s,
                ),
                "invalid": st.lists(
                    st.lists(st.booleans(), min_size=n, max_size=n),
                    min_size=s, max_size=s,
                ),
            }
        )
    )
)


class TestPackedKeyCascade:
    """``table2_rank_order`` is permutation-identical to ``np.lexsort``."""

    @settings(max_examples=200, deadline=None)
    @given(_key_arrays)
    def test_full_cascade_matches_lexsort(self, keys):
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        x = np.asarray(keys["x"], dtype=np.int64)
        y = np.asarray(keys["y"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        bk = resolve_backend("numpy")
        got = table2_rank_order(bk, invalid=invalid, dl=dl, arr=arr, x=x, y=y)
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=False
        )
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(_key_arrays)
    def test_deadline_only_cascade_matches_lexsort(self, keys):
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        bk = resolve_backend("numpy")
        got = table2_rank_order(
            bk, invalid=invalid, dl=dl, arr=arr, deadline_only=True
        )
        expected = _lexsort_reference(
            invalid, dl, arr, None, None, deadline_only=True
        )
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(_key_arrays)
    def test_generic_namespace_agrees_with_numpy(self, keys):
        """The standard-only code path ranks identically to NumPy's."""
        dl = np.asarray(keys["dl"], dtype=np.int64)
        arr = np.asarray(keys["arr"], dtype=np.int64)
        x = np.asarray(keys["x"], dtype=np.int64)
        y = np.asarray(keys["y"], dtype=np.int64)
        invalid = np.asarray(keys["invalid"], dtype=bool)
        generic = ArrayApiBackend(np, name="generic")
        got = generic.to_numpy(
            table2_rank_order(
                generic, invalid=invalid, dl=dl, arr=arr, x=x, y=y
            )
        )
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=False
        )
        np.testing.assert_array_equal(got, expected)

    def test_window_key_table_orders_every_counter_pair(self):
        """Over all 2^16 ``(x', y')`` pairs the table key sorts, and
        ties, exactly like the pre-refactor float key triple."""
        x, y = np.divmod(np.arange(1 << 16, dtype=np.int64), 1 << 8)
        zero_wc = (x == 0) | (y == 0)
        wc = np.where(zero_wc, 0.0, x / np.where(y == 0, 1, y))
        den_key = np.where(zero_wc, -y, 0)
        num_key = np.where(zero_wc, 0, x)
        table = window_key_table()
        order = np.lexsort((num_key, den_key, wc))
        np.testing.assert_array_equal(
            np.argsort(table, kind="stable"), order
        )
        triple = np.stack([wc, den_key, num_key])[:, order]
        np.testing.assert_array_equal(
            np.diff(table[order]) == 0,
            (np.diff(triple, axis=1) == 0).all(axis=0),
        )

    def test_ratio_ties_break_on_numerator(self):
        """1/2 vs 2/4: equal loss-constraint, ordered by raw numerator."""
        bk = resolve_backend("numpy")
        shape = (1, 4)
        dl = np.zeros(shape, dtype=np.int64)
        arr = np.zeros(shape, dtype=np.int64)
        invalid = np.zeros(shape, dtype=bool)
        x = np.asarray([[2, 1, 2, 1]], dtype=np.int64)
        y = np.asarray([[4, 2, 4, 2]], dtype=np.int64)
        got = table2_rank_order(bk, invalid=invalid, dl=dl, arr=arr, x=x, y=y)
        expected = _lexsort_reference(
            invalid, dl, arr, x, y, deadline_only=False
        )
        np.testing.assert_array_equal(got, expected)
        assert got.tolist() == [[1, 3, 0, 2]]


class TestCrossBackendByteIdentity:
    """Whole-engine observables agree across every available backend."""

    @pytest.mark.parametrize("backend", _backend_params())
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    def test_bucketed_campaign_traces_identical(self, backend, seed):
        scenarios = [
            generate_scenario(seed * 8 + i, n_cycles=60) for i in range(4)
        ]
        for bucket in bucketed(scenarios).values():
            baseline = run_bucket(bucket)
            alternate = run_bucket(bucket, engine_backend=_resolve(backend))
            assert baseline == alternate

    @pytest.mark.parametrize("backend", _backend_params())
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    def test_periodic_run_identical(self, backend, seed):
        arch, streams = random_arch_streams(seed, 8)

        def run(engine_backend):
            engine = CampaignEngine(
                arch, [streams], engine_backend=engine_backend
            )
            return engine.run_periodic(
                120, step=2, collect_winners=True
            )[0]

        baseline = run("numpy")
        alternate = run(_resolve(backend))
        np.testing.assert_array_equal(baseline.wins, alternate.wins)
        np.testing.assert_array_equal(baseline.misses, alternate.misses)
        np.testing.assert_array_equal(baseline.serviced, alternate.serviced)
        np.testing.assert_array_equal(baseline.winners, alternate.winners)
