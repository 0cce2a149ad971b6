"""Executor backends: how a chunk of simulations is actually run.

The evaluation engine separates *what* to simulate (cache-missing
``EvalRequest``s) from *how* to run the misses.  The "how" is an
:class:`ExecutorBackend`, selected by name through a registry that
mirrors the controller registry (:mod:`repro.stonne.controller`).
Every backend runs work the same way: the pull scheduler
(:mod:`repro.engine.scheduler`) asks it for its slots
(:meth:`ExecutorBackend.pull_slots`) and hands each slot chunks to
execute (:meth:`ExecutorBackend.run_chunk`).

* :class:`SerialBackend` — one slot, drained inline on the calling
  thread;
* :class:`ProcessBackend` — one slot per pool process.  Controllers are
  pure functions of (config, params, layer, mapping) and every piece
  pickles cleanly, so workers rebuild the controller once per process,
  simulate their chunk (grouped through the same batch kernels), and
  ship ``(key, stats)`` pairs back for the parent to merge into its
  :class:`~repro.engine.cache.StatsCache`.

Whatever a backend cannot ship elsewhere (a broken pool, an unreachable
fleet) it runs inline through :meth:`ExecutorBackend.run_chunk`, the one
local chunk path: same-layer items group into one batch-kernel call
(:func:`simulate_chunk`).

Backends receive work as ``(key, EvalRequest)`` pairs — ``key`` is the
content-addressed cache key (``None`` when caching is off) — and return
``(key, stats_or_exception)`` pairs in submission order.  Exceptions are
captured per item rather than aborting the chunk, so one invalid mapping
cannot poison a generation of tuner proposals.
"""

from __future__ import annotations

import inspect
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    ClassVar,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import ConfigError

#: One unit of backend work: (cache key or None, EvalRequest).
WorkItem = Tuple[Optional[Hashable], "EvalRequest"]  # noqa: F821
#: One backend result: the key plus either stats or the captured error.
WorkResult = Tuple[Optional[Hashable], object]


class ExecutorBackend:
    """How the engine executes cache-missing simulations.

    Subclasses set :attr:`name` (the registry key) and may override
    :meth:`pull_slots` (how many lanes run at once) and
    :meth:`run_chunk` (how one lane executes a chunk).  The defaults are
    one inline slot.  Backends hold no simulation state of their own —
    the engine passes itself in so backends can reach its config,
    params and functional flag — which keeps one backend shareable
    across engines.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    def pull_slots(self, engine) -> List:
        """Slot identities for the pull scheduler; never empty.

        Each slot is an opaque token naming one concurrent execution
        lane (a pool worker, a fleet capacity unit).  The scheduler
        drains the first slot on the calling thread and starts one
        puller thread per further slot.  The default is one slot.
        """
        return [0]

    def run_chunk(
        self, engine, items: Sequence[WorkItem], slot=None
    ) -> List[WorkResult]:
        """Execute one scheduler chunk on ``slot``, in submission order.

        Called concurrently from scheduler pullers, one per slot from
        :meth:`pull_slots` — implementations must be thread-safe across
        distinct slots.  The default runs inline (the puller thread *is*
        the lane), grouping the chunk's same-layer items through the
        controller's batch kernels (:func:`simulate_chunk`); every
        backend's local fallback is this method.
        """
        pairs = [(request.layer, request.mapping) for _, request in items]
        payloads = simulate_chunk(
            engine._local_controller(), pairs, engine.functional
        )
        return [(key, payload) for (key, _), payload in zip(items, payloads)]

    @property
    def metrics(self):
        """The backend's :class:`~repro.obs.metrics.MetricsRegistry`.

        Created lazily on first access (subclasses do not all route
        through a common ``__init__``).  The scheduler accumulates its
        typed counters here under ``scheduler.*`` — see
        :func:`repro.engine.scheduler.backend_counters` for the plain
        dict view — and backends may add their own instruments (the
        remote backend records per-worker fleet health).
        """
        registry = self.__dict__.get("_metrics_registry")
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            self.__dict__["_metrics_registry"] = registry
        return registry

    def close(self) -> None:
        """Release pooled resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def simulate_layer(controller, layer, mapping, functional: bool):
    """Run one cycle-model simulation (plus the exact datapath when
    ``functional``) on an already-built controller.

    This is the single definition of "simulate" shared by the engine's
    in-process path and the process-pool workers, so the two can never
    drift apart.  The functional datapath runs on synthetic all-ones
    tensors and its outputs are discarded — they never affect stats.
    It exists only for simulations without caller tensors (tuner
    trials, sweeps, workers), to carry real STONNE's cost; the offload
    API computes real outputs itself and has the engine pass
    ``functional=False`` here.
    """
    import numpy as np

    from repro.stonne.layer import ConvLayer, FcLayer

    if isinstance(layer, ConvLayer):
        stats = controller.run_conv(layer, mapping)
    elif isinstance(layer, FcLayer):
        stats = controller.run_fc(layer, mapping)
    else:
        stats = controller.run_gemm(layer)
    if functional:
        from repro.stonne.simulator import _conv_via_gemm

        if isinstance(layer, ConvLayer):
            if layer.layout == "NHWC":
                # NHWC activations / RSCK kernels, transposed around the
                # NCHW core exactly like Bifrost's layout-emulation path.
                from repro.topi.layout import nchw_to_nhwc, nhwc_to_nchw, rsck_to_kcrs

                data = np.ones((layer.N, layer.H, layer.W, layer.C))
                weights = np.ones((layer.R, layer.S, layer.C // layer.G, layer.K))
                out = _conv_via_gemm(
                    nhwc_to_nchw(data), rsck_to_kcrs(weights), layer
                )
                nchw_to_nhwc(out)
            else:
                data = np.ones((layer.N, layer.C, layer.H, layer.W))
                weights = np.ones((layer.K, layer.C // layer.G, layer.R, layer.S))
                _conv_via_gemm(data, weights, layer)
        elif isinstance(layer, FcLayer):
            data = np.ones((layer.batch, layer.in_features))
            weights = np.ones((layer.out_features, layer.in_features))
            data @ weights.T
        else:
            np.ones((layer.M, layer.K)) @ np.ones((layer.K, layer.N))
    return stats


def simulate_layer_batch(controller, layer, mappings) -> List:
    """Simulate one layer under many mappings through the controller's
    batch kernels; returns stats-or-exception per item, in order.

    GEMM layers carry no mapping, so a group of ``n`` items lowers to
    ``run_gemm_batch([layer] * n)``.  Duck-typed controllers without the
    batch surface fall back to a scalar loop — batching is an
    optimization, never a requirement.
    """
    from repro.stonne.layer import ConvLayer, FcLayer

    if isinstance(layer, ConvLayer):
        batch = getattr(controller, "run_conv_batch", None)
        if batch is not None:
            return batch(layer, mappings)
    elif isinstance(layer, FcLayer):
        batch = getattr(controller, "run_fc_batch", None)
        if batch is not None:
            return batch(layer, mappings)
    else:
        batch = getattr(controller, "run_gemm_batch", None)
        if batch is not None:
            return batch([layer] * len(mappings))
    results: List = []
    for mapping in mappings:
        try:
            results.append(simulate_layer(controller, layer, mapping, False))
        except Exception as exc:
            results.append(exc)
    return results


def simulate_chunk(controller, pairs, functional: bool) -> List:
    """Payloads (stats or the captured exception) for a chunk of
    ``(layer, mapping)`` pairs, in submission order.

    The chunk-grouping rule: pairs sharing a layer (dataclass equality —
    the engine's structural dedup already collapses same-shape duplicates
    at plan time) form one group, and each multi-item group is simulated
    by a single controller batch-kernel call.  Singleton groups,
    unhashable duck-typed layers and functional mode go through the
    scalar :func:`simulate_layer` seam one at a time, preserving its
    exact behaviour (including test monkeypatching) where batching buys
    nothing.
    """
    groups: Dict = {}
    singles: List[int] = []
    if functional:
        singles = list(range(len(pairs)))
    else:
        for index, (layer, _) in enumerate(pairs):
            try:
                groups.setdefault(layer, []).append(index)
            except TypeError:  # unhashable duck-typed layer
                singles.append(index)
    results: List = [None] * len(pairs)
    for layer, indices in groups.items():
        if len(indices) == 1:
            singles.extend(indices)
            continue
        payloads = simulate_layer_batch(
            controller, layer, [pairs[i][1] for i in indices]
        )
        for index, payload in zip(indices, payloads):
            results[index] = payload
    for index in sorted(singles):
        layer, mapping = pairs[index]
        try:
            results[index] = simulate_layer(controller, layer, mapping, functional)
        except Exception as exc:
            results[index] = exc
    return results


class SerialBackend(ExecutorBackend):
    """Inline execution — the baseline every other backend must beat.

    One slot, drained on the calling thread, so each engine group runs
    as one chunk and same-layer work still collapses into batch-kernel
    calls: the serial default benefits from vectorization exactly like
    the pooled backends.
    """

    name = "serial"


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
#: Per-worker-process controller cache, keyed by the engine fingerprint.
#: Workers rebuild a controller once and reuse it across chunks, which is
#: what makes generation-sized batches cheap to fan out.
_WORKER_CONTROLLERS: Dict[str, object] = {}


def _process_chunk(spec: Tuple, chunk: List[Tuple]) -> List[Tuple]:
    """Worker entry point: simulate one chunk of (position, key, layer,
    mapping) items under the controller described by ``spec``.

    Runs in the worker process.  Same-layer items group into one batch
    kernel call (:func:`simulate_chunk`).  Returns (position, key,
    stats-or-error) triples; errors are captured so a bad mapping never
    kills the pool.
    """
    fingerprint, controller_cls, config, params, functional = spec
    controller = _WORKER_CONTROLLERS.get(fingerprint)
    if controller is None:
        controller = controller_cls(config, params)
        _WORKER_CONTROLLERS[fingerprint] = controller

    pairs = [(layer, mapping) for _, _, layer, mapping in chunk]
    payloads = simulate_chunk(controller, pairs, functional)
    return [
        (position, key, payload)
        for (position, key, _, _), payload in zip(chunk, payloads)
    ]


class ProcessBackend(ExecutorBackend):
    """Process-pooled execution for CPU-bound sweeps.

    The local way to spread simulations over cores: each pool process
    is one scheduler slot, simulates the chunks its puller ships with a
    per-process cached controller, and the parent merges the returned
    ``(key, stats)`` pairs into its cache.  ``max_workers`` is the pool
    width (default: the core count, at least two).

    The pool is created lazily by the first :meth:`pull_slots`, reused
    across runs (spawn cost is paid once per backend) and released by
    :meth:`close`.  A width of one starts no pool and runs inline.  When
    a pool process dies, the broken pool is discarded, the chunks that
    hit it run inline on their pullers, and the next :meth:`pull_slots`
    builds a fresh pool — so a long-lived engine outlives a killed
    worker.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool = None
        self._pool_lock = threading.Lock()

    def pull_slots(self, engine):
        workers = self.max_workers or max(2, os.cpu_count() or 2)
        if workers <= 1:
            return [0]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return list(range(workers))

    def run_chunk(self, engine, items, slot=None):
        pool = self._pool
        if pool is None:
            return super().run_chunk(engine, items, slot)
        spec = (
            engine.fingerprint,
            type(engine.controller),
            engine.config,
            engine.params,
            engine.functional,
        )
        chunk = [
            (position, key, request.layer, request.mapping)
            for position, (key, request) in enumerate(items)
        ]
        try:
            returned = pool.submit(_process_chunk, spec, chunk).result()
        except BrokenProcessPool:
            self._discard(pool)
            return super().run_chunk(engine, items, slot)
        results: List[WorkResult] = [None] * len(items)  # type: ignore
        for position, key, payload in returned:
            results[position] = (key, payload)
        return results

    def _discard(self, pool) -> None:
        """Drop a broken pool once, however many pullers hit it."""
        with self._pool_lock:
            if self._pool is not pool:
                return
            self._pool = None
        pool.shutdown(wait=True)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# registry (mirrors repro.stonne.controller)
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ExecutorBackend]] = {}


def register_backend(
    name: str,
) -> Callable[[Type[ExecutorBackend]], Type[ExecutorBackend]]:
    """Class decorator registering an executor backend under ``name``."""

    def decorator(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"executor backend {name!r} is already registered to "
                f"{existing.__name__}; unregister it first"
            )
        _REGISTRY[name] = cls
        # Stamp the registry name onto classes that don't declare their
        # own; never mutate one that does (registering a built-in under
        # an alias must not corrupt its original name).
        if "name" not in cls.__dict__:
            cls.name = name
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registration (tests and hot-swapping extensions)."""
    _REGISTRY.pop(name, None)


def _ensure_builtin_backends() -> None:
    for cls in (SerialBackend, ProcessBackend):
        _REGISTRY.setdefault(cls.name, cls)
    # The remote backend lives in repro.fleet (it drags in the wire
    # protocol); importing it registers it, making "remote" a first-class
    # registry citizen everywhere backends are listed or resolved.
    try:
        import repro.fleet.remote_backend  # noqa: F401  (import = register)
    except ImportError:  # pragma: no cover - stripped-down installs only;
        pass  # anything else (a real bug in fleet code) must surface


def backend_class(name: str) -> Type[ExecutorBackend]:
    """The registered backend class for ``name``."""
    if name not in _REGISTRY:
        _ensure_builtin_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"no executor backend registered for {name!r}; "
            f"known backends: {sorted(_REGISTRY)}"
        ) from None


def make_backend(
    executor: Union[str, ExecutorBackend, None],
    max_workers: Optional[int] = None,
) -> ExecutorBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to :class:`SerialBackend`.  ``max_workers`` is the
    pool width, handed to backends whose constructor takes one (the
    process pool); backends without a pool ignore it.
    """
    if isinstance(executor, ExecutorBackend):
        return executor
    cls = backend_class(executor or "serial")
    if "max_workers" in inspect.signature(cls).parameters:
        return cls(max_workers=max_workers)
    return cls()


def registered_backends() -> List[str]:
    """Sorted registry keys, built-ins included."""
    _ensure_builtin_backends()
    return sorted(_REGISTRY)


_ensure_builtin_backends()
