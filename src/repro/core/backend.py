"""NumPy dispatch layer for the tensorized engines.

The ``(S, N)`` campaign engine (:mod:`repro.core.tensor_engine`) calls
its batched kernels through the per-op forwarders of a
:class:`NumpyBackend` — creation, ``where``/``minimum``, gathers
(``take`` / ``take_along_axis``), a **stable** ascending ``argsort``
and reductions.  ``engine_backend`` picks one of two backends
(:data:`BACKENDS`): ``"numpy"``, the plain array path, or ``"numba"``,
which keeps the same NumPy state and routes the engine's fused entry
points through the compiled kernels of :mod:`repro.core.jit`.

Backends resolve *lazily* by name (:func:`resolve_backend`), so
importing this module — or running the default NumPy path — never
imports numba.

Determinism contract: both backends produce **byte-identical** engine
observables for the same workload.  The two requirements that carry
that guarantee are (a) all engine state is integer/bool typed — there
is no float anywhere in the kernels, so no accumulation-order
sensitivity — and (b) :meth:`NumpyBackend.argsort_stable` is a
*stable* ascending sort, which together with the engine's
sid-uniqueness makes every rank permutation total.
``tests/test_jit_equivalence.py`` enforces the contract.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "NumpyBackend",
    "NumbaBackend",
    "BACKENDS",
    "resolve_backend",
    "BackendUnavailable",
]

#: Accepted ``engine_backend`` names.
BACKENDS = ("numpy", "numba")

#: pip extra that pins the numba JIT dependency.
_JIT_HINT = 'pip install -e ".[jit]"'


class BackendUnavailable(ImportError):
    """An engine backend's library is not importable on this host."""


class NumpyBackend:
    """The default backend: NumPy, compatible back to the 1.x series.

    Engine code additionally relies on scalar ``arr[s, i]``
    reads/writes and ``int(arr[s, i])`` conversion for the
    queue-backed scalar paths.
    """

    def __init__(self) -> None:
        self.xp = np
        self.name = "numpy"
        self.int64 = np.int64
        self.bool_ = np.bool_

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

    # -- creation ------------------------------------------------------

    def asarray(self, obj, dtype=None):
        return self.xp.asarray(obj, dtype=dtype)

    def zeros(self, shape, dtype):
        return self.xp.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype):
        return self.xp.ones(shape, dtype=dtype)

    def full(self, shape, fill, dtype):
        return self.xp.full(shape, fill, dtype=dtype)

    def arange(self, n: int):
        return self.xp.arange(n, dtype=self.int64)

    def astype(self, arr, dtype):
        # np.astype only exists in NumPy >= 2.0.
        return arr.astype(dtype)

    def broadcast_to(self, arr, shape):
        return self.xp.broadcast_to(arr, shape)

    def reshape(self, arr, shape):
        return self.xp.reshape(arr, shape)

    # -- elementwise select --------------------------------------------

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    # -- gathers -------------------------------------------------------

    def take(self, arr, indices, *, axis: int):
        """Gather 1-D ``indices`` along one axis."""
        return self.xp.take(arr, indices, axis=axis)

    def take_along_last(self, arr, indices):
        """``take_along_axis(arr, indices, axis=-1)`` for 2-D operands."""
        return np.take_along_axis(arr, indices, axis=-1)

    def interleave_pairs(self, lo, hi):
        """``(S, n/2) x 2 -> (S, n)``: lo0, hi0, lo1, hi1, ...

        The perfect-shuffle exchange writeback, expressed as
        stack+reshape so no strided ``__setitem__`` is required.
        """
        s, half = lo.shape
        return self.xp.reshape(
            self.xp.stack((lo, hi), axis=-1), (s, half * 2)
        )

    # -- sort ----------------------------------------------------------

    def argsort_stable(self, arr):
        """Stable ascending argsort along the last axis.

        Stability is load-bearing: the engine's composite rank sort
        cascades stable passes from least- to most-significant key
        (see :func:`repro.core.tensor_engine.table2_rank_order`), so an
        unstable sort would silently break the byte-identity contract.
        """
        # kind="stable" predates the 2.0 `stable=` keyword.
        return np.argsort(arr, axis=-1, kind="stable")

    # -- reductions / predicates ---------------------------------------

    def any(self, arr) -> bool:
        """Host boolean: does any element hold?"""
        return bool(self.xp.any(arr))

    def any_along_last(self, arr):
        return self.xp.any(arr, axis=-1)

    def argmax_last(self, arr):
        return self.xp.argmax(arr, axis=-1)

    def flip_last(self, arr):
        return self.xp.flip(arr, axis=-1)

    def min_int(self, arr) -> int:
        """Host integer minimum of a non-empty integer array."""
        return int(self.xp.min(arr))


class NumbaBackend(NumpyBackend):
    """NumPy state + fused compiled kernels (:mod:`repro.core.jit`).

    Subclasses :class:`NumpyBackend` — the ``(S, N)`` state stays plain
    host ndarrays with identical array-op semantics — and additionally
    carries :attr:`jit_kernels`, which the tensor engine checks to
    route its fused entry points (rank cascade, network replay, DWCS
    miss scatter, and the whole-run periodic driver) through the
    ``@njit(cache=True)`` kernels instead of per-phase array dispatch.

    When numba is missing the kernels would run interpreted (correct
    but slow), so construction raises :class:`BackendUnavailable`
    unless ``force_interpreted=True`` — the escape hatch the
    equivalence suite and the JIT benchmark use to exercise the kernel
    code paths on hosts without the ``jit`` extra (semantically the
    same run numba's ``NUMBA_DISABLE_JIT=1`` produces).  The
    :func:`resolve_backend` seam instead degrades ``"numba"`` to the
    NumPy backend with a single warning (see :func:`_make_numba`).
    """

    def __init__(self, *, force_interpreted: bool = False) -> None:
        from repro.core import jit

        if not (jit.NUMBA_AVAILABLE or force_interpreted):
            raise BackendUnavailable(
                f"engine backend 'numba' needs numba ({_JIT_HINT})"
            )
        super().__init__()
        self.name = "numba"
        #: The kernel module the engine's fused entry points dispatch to.
        self.jit_kernels = jit
        #: True when the kernels are actually compiled (numba present).
        self.jit_compiled = jit.NUMBA_AVAILABLE


#: One warning per process even if the backend cache is cleared.
_numba_fallback_warned = False


def _make_numba() -> NumpyBackend:
    """Compiled backend when numba is importable, else NumPy + warning.

    The degrade-don't-fail contract: ``engine_backend="numba"`` must
    never make a host without the ``jit`` extra crash or silently run
    the slow interpreted kernels — it falls back to the plain NumPy
    path (byte-identical observables, just uncompiled) and says so
    exactly once per process.
    """
    from repro.core import jit

    if jit.NUMBA_AVAILABLE:  # pragma: no cover - needs the jit extra
        return NumbaBackend()
    global _numba_fallback_warned
    if not _numba_fallback_warned:
        _numba_fallback_warned = True
        warnings.warn(
            "engine backend 'numba' requested but numba is not "
            "importable; degrading to the plain NumPy path "
            f"({_JIT_HINT})",
            RuntimeWarning,
            stacklevel=3,
        )
    return resolve_backend("numpy")


_FACTORIES = {
    "numpy": NumpyBackend,
    "numba": _make_numba,
}

_CACHE: dict[str, NumpyBackend] = {}


def resolve_backend(backend: str | NumpyBackend = "numpy") -> NumpyBackend:
    """Resolve a backend by name (lazily, cached) or pass one through.

    Accepts an already-constructed :class:`NumpyBackend` (or
    :class:`NumbaBackend`) unchanged, so tests can inject an
    interpreted-kernel ``NumbaBackend(force_interpreted=True)``.
    Any other name raises :class:`ValueError` listing
    :data:`BACKENDS`.
    """
    if isinstance(backend, NumpyBackend):
        return backend
    if backend not in _FACTORIES:
        raise ValueError(
            f"unknown engine backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    cached = _CACHE.get(backend)
    if cached is None:
        cached = _CACHE[backend] = _FACTORIES[backend]()
    return cached
