"""repro.engine — cached, batched evaluation of simulated accelerators.

Why this package exists
-----------------------
Bifrost's core loop (§V, §VII-B of the paper) is "configure a simulator
instance per layer, run, record stats", repeated thousands of times
during mapping tuning — where the paper notes a full simulation per
trial is the *expensive exact objective*.  The seed code re-simulated
identical (layer, mapping, config) triples from scratch on every trial;
this package turns that hot path into a service with memoization and
batching.

Components
----------
:class:`~repro.engine.cache.StatsCache`
    A thread-safe, LRU-bounded, content-addressed cache mapping the
    fingerprint of (layer, mapping, SimulatorConfig, CycleModelParams)
    to :class:`~repro.stonne.stats.SimulationStats`, with hit/miss
    counters.  Keys are structural — the layer *name* is excluded — so
    re-tuning a layer whose shape already appeared (common in real
    networks: VGG/AlexNet repeat shapes) hits the cache.

:class:`~repro.engine.evaluation.EvaluationEngine`
    The evaluation front end.  ``evaluate(layer, mapping)`` resolves the
    architecture through the controller registry, consults the cache,
    and simulates on a miss; ``evaluate_many`` hands a batch of
    :class:`~repro.engine.evaluation.EvalRequest` misses to the pull
    scheduler (each puller thread that simulates inline gets its own
    controller instance, so the cycle models' internal tallies never
    race).  ``num_simulations`` vs
    ``num_evaluations`` counters expose real simulation savings.

    ``functional=True`` additionally executes the exact datapath (the
    im2col GEMM) on synthetic tensors per simulation that has no caller
    tensors — tuner trials, sweeps, ``run``/``run_layers`` and pool or
    fleet workers — reproducing the cost profile of real STONNE, which
    always computes outputs, so benchmarks can measure cache benefit
    against realistic per-trial cost.  The offload API evaluates with
    ``caller_tensors=True`` instead: it runs the exact datapath on the
    real tensors itself, so the synthetic pass would only repeat that
    work.  Stats are identical with and without the functional datapath
    (mapping-invariance).

:mod:`~repro.engine.backends`
    The executor backends ``evaluate_many`` runs cache misses on,
    selected by name through a registry that mirrors the controller
    registry: ``serial`` (one inline slot), ``process`` (a process pool
    — controllers are pure functions of (config, params, layer,
    mapping) and pickle cleanly, so workers simulate independently and
    return ``(key, stats)`` pairs that merge into the parent cache) and
    ``remote`` (fleet workers, :mod:`repro.fleet`).  Each backend only
    says how many slots it has and how one slot runs a chunk; whatever
    runs locally goes through the one inline chunk path,
    :meth:`~repro.engine.backends.ExecutorBackend.run_chunk`.

:class:`~repro.engine.cache.PersistentStatsCache`
    The disk tier: an append-only JSONL spill under the in-memory LRU.
    Opening a cache on an existing file warm-starts it, so tuning
    sessions resume warm across processes and workers can share one
    measurement history.

:mod:`~repro.engine.scheduler`
    The one execution path: :func:`~repro.engine.scheduler.run_plan_groups`
    drains many engines' planned batches through one shared queue of
    chunks (one puller per backend slot, the calling thread being the
    first), so engine groups overlap and a slot that finishes early
    keeps pulling — bit-identical to serial execution.  Serial is the
    one-slot case.

Who routes through it
---------------------
* ``repro.session.Session`` — the public facade: it builds one engine
  per session from a typed ``SessionConfig`` (executor, cache tier,
  fleet workers) and guarantees ``close()`` runs on exit;
* ``repro.tuner.measure.TuningTask`` — ``measure_batch`` submits a whole
  tuner generation to ``evaluate_many``, making GA/XGB tuning
  dramatically cheaper on revisited configs while keeping results
  bit-identical;
* ``repro.bifrost.api.StonneBifrostApi`` — offloaded conv2d/dense stats
  lookups go through the session engine, so repeated shapes in one graph
  skip the cycle model (the functional datapath still executes, once,
  on the caller's tensors: the engine never adds a synthetic pass);
* ``repro.bifrost.runner.run_layers`` — bare-descriptor benchmarking
  batches through the session's engine;
* ``benchmarks/bench_engine_cache.py`` — measures the speedups.

Results are bit-identical with the cache on or off and across backends:
every controller is a deterministic function of (layer, config, params,
mapping), and cache hits return independent copies so callers can never
corrupt the cache.
"""

from repro.engine.backends import (
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.engine.cache import (
    PersistentStatsCache,
    StatsCache,
    make_stats_cache,
)
from repro.engine.evaluation import (
    BatchPlan,
    EvalRequest,
    EvaluationEngine,
    evaluation_key,
    fingerprint_config,
)
from repro.engine.scheduler import backend_counters, run_plan_groups
from repro.engine.sqlite_cache import SqliteStatsCache

__all__ = [
    "BatchPlan",
    "EvalRequest",
    "EvaluationEngine",
    "ExecutorBackend",
    "PersistentStatsCache",
    "ProcessBackend",
    "SerialBackend",
    "SqliteStatsCache",
    "StatsCache",
    "backend_counters",
    "evaluation_key",
    "fingerprint_config",
    "make_backend",
    "make_stats_cache",
    "register_backend",
    "registered_backends",
    "run_plan_groups",
    "unregister_backend",
]
