"""Which functions of ``repro`` the traced run wraps, and the per-layer
metrics it derives from them.

Each layer is one ``repro`` package.  :func:`install` wraps the layer's
public entry points on a :class:`~trace_wrap.Tracer`; :func:`end_op`
folds in the spans and the engine and cache counters of the operation
that just ran; :func:`per_layer_metrics` turns the totals of all traced
operations into per-operation values under the names ``BENCHMARK.json``
lists.
Self times are per operation and exclude wrapped calls made below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from trace_wrap import Tracer

#: Controllers by class name, as they appear in metric names.
CONTROLLERS = {
    "MaeriController": "maeri",
    "SigmaController": "sigma",
    "TpuController": "tpu",
    "MagmaController": "magma",
}

#: Batch kernels per controller that the workloads reach: only the psum
#: estimates the tuner uses.  The cycle kernels (``run_*_batch``) run
#: only for a chunk holding one layer under several mappings, and no
#: workload makes one: ``arch_matrix``'s chunks hold one mapping per
#: layer and functional mode is scalar.  They are still wrapped, so a
#: call to them shows in the traced run's list of unreported spans.
KERNELS = {
    "maeri": ("estimate_conv_psums_batch", "estimate_fc_psums_batch"),
}
_ALL_KERNELS = ("run_conv_batch", "run_fc_batch", "run_gemm_batch",
                "estimate_conv_psums_batch", "estimate_fc_psums_batch")

#: (span, metric prefix, what is reported) for plain wrapped calls.
SPANS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cli.build_parser", "cli.build_parser_s", ()),
    ("cli.main", "cli.main_s", ()),
    ("session.config_resolve", "session.config_resolve", ("self_s",)),
    ("session.init", "session.init", ("self_s",)),
    ("session.close", "session.close", ("self_s",)),
    ("sweep.plan_matrix", "sweep.plan_matrix", ("self_s",)),
    ("sweep.execute", "sweep.execute", ("self_s",)),
    ("bifrost.mapping_for", "bifrost.mapping_for", ("calls", "self_s")),
    ("tuner.propose", "tuner.propose", ("self_s",)),
    ("tuner.gbt_fit", "tuner.gbt_fit", ("calls", "self_s")),
    ("tuner.gbt_predict", "tuner.gbt_predict", ("self_s",)),
    ("tuner.measure_batch", "tuner.measure_batch", ("self_s",)),
    ("tuner.update", "tuner.update", ("self_s",)),
    ("mrna.map_conv", "mrna.map_conv", ("calls", "self_s")),
    ("mrna.map_fc", "mrna.map_fc", ("calls", "self_s")),
    ("engine.plan_many", "engine.plan_many", ("self_s",)),
    ("engine.evaluate", "engine.evaluate", ("self_s",)),
    ("engine.run_plan_groups", "engine.run_plan_groups", ("self_s",)),
    ("engine.cache_get", "engine.cache_get", ("calls", "self_s")),
    ("engine.cache_put", "engine.cache_put", ("calls", "self_s")),
    ("engine.simulate_chunk", "engine.simulate_chunk", ("self_s",)),
    ("stonne.simulate_layer", "stonne.simulate_layer", ("calls", "self_s")),
    ("runtime.graph_run", "runtime.graph_run", ("self_s",)),
)

#: Counters summed over operations.
COUNTS = (
    "tuner.measurements", "engine.simulations", "engine.evaluations",
    "engine.cache_tier.l1_hits", "engine.cache_tier.db_hits",
    "engine.cache_tier.misses", "engine.cache_tier.evictions",
)

#: Per-operation figures of the traced run itself.
RUN_METRICS = ("op_wall_s", "unattributed_s", "trace_overhead_ratio")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def catalog() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: List[str] = ["cli.import_s"]
    for _, prefix, parts in SPANS:
        if parts:
            names.extend(f"{prefix}.{part}" for part in parts)
        else:
            names.append(prefix)
    names += ["tuner.measurements", "tuner.valid_ratio",
              "engine.simulations", "engine.evaluations",
              "engine.cache_hit_ratio",
              "engine.cache_tier.l1_hits", "engine.cache_tier.db_hits",
              "engine.cache_tier.misses", "engine.cache_tier.evictions"]
    for controller, kernels in KERNELS.items():
        for kernel in kernels:
            names.extend(f"stonne.{controller}.{kernel}.{part}"
                         for part in ("calls", "rows", "self_s"))
    names.extend(RUN_METRICS)
    return [(name, _unit(name)) for name in names]


# ----------------------------------------------------------------------
# count hooks
# ----------------------------------------------------------------------
def _kernel_span(kernel: str):
    def name(args: tuple) -> str:
        controller = CONTROLLERS.get(type(args[0]).__name__,
                                     type(args[0]).__name__)
        return f"stonne.{controller}.{kernel}"
    return name


def _count_rows(kernel: str):
    span = _kernel_span(kernel)

    def hook(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        tracer.add(span(args) + ".rows", len(result))
    return hook


def _count_measurements(tracer: Tracer, args, kwargs, results) -> None:
    tracer.add("tuner.measurements", len(results))
    tracer.add("tuner.valid", sum(1 for r in results if r.valid))


def _register_engine(tracer: Tracer, args, kwargs, result) -> None:
    tracer.engines.append(args[0])


# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of ``repro`` on ``tracer``."""
    from repro.bifrost.mapping_config import MappingConfigurator
    from repro.engine import backends, scheduler
    from repro.engine.cache import PersistentStatsCache, StatsCache
    from repro.engine.evaluation import EvaluationEngine
    from repro.engine.sqlite_cache import SqliteStatsCache
    from repro.mrna.mapper import MrnaMapper
    from repro.runtime.executor import GraphExecutor
    from repro.session.config import SessionConfig
    from repro.session.session import Session
    from repro.stonne.controller import AcceleratorController
    from repro.stonne.magma import MagmaController
    from repro.stonne.maeri import MaeriController
    from repro.stonne.sigma import SigmaController
    from repro.stonne.tpu import TpuController
    from repro.sweep.plan import SweepPlan
    from repro.sweep.runner import SweepRunner
    from repro.tuner.gbt import GradientBoostedTrees
    from repro.tuner.measure import TuningTask
    from repro.tuner.tuners.xgb import XGBTuner

    wrap = tracer.wrap
    wrap(SessionConfig, "resolve", "session.config_resolve")
    wrap(Session, "__init__", "session.init")
    wrap(Session, "close", "session.close")
    wrap(SweepPlan, "matrix", "sweep.plan_matrix")
    wrap(SweepRunner, "execute", "sweep.execute")
    wrap(MappingConfigurator, "mapping_for", "bifrost.mapping_for")
    wrap(XGBTuner, "propose", "tuner.propose")
    wrap(XGBTuner, "update", "tuner.update")
    wrap(GradientBoostedTrees, "fit", "tuner.gbt_fit")
    wrap(GradientBoostedTrees, "predict", "tuner.gbt_predict")
    wrap(TuningTask, "measure_batch", "tuner.measure_batch",
         _count_measurements)
    wrap(MrnaMapper, "map_conv", "mrna.map_conv")
    wrap(MrnaMapper, "map_fc", "mrna.map_fc")
    wrap(EvaluationEngine, "__init__", None, _register_engine)
    wrap(EvaluationEngine, "plan_many", "engine.plan_many")
    wrap(EvaluationEngine, "evaluate", "engine.evaluate")
    wrap(scheduler, "run_plan_groups", "engine.run_plan_groups")
    for cls in (StatsCache, PersistentStatsCache, SqliteStatsCache):
        for method in ("get", "put"):
            if method in cls.__dict__:
                wrap(cls, method, f"engine.cache_{method}")
    wrap(backends, "simulate_chunk", "engine.simulate_chunk")
    wrap(backends, "simulate_layer", "stonne.simulate_layer")
    wrap(GraphExecutor, "run", "runtime.graph_run")
    for cls in (AcceleratorController, MaeriController, SigmaController,
                TpuController, MagmaController):
        for kernel in _ALL_KERNELS:
            if kernel in cls.__dict__:
                wrap(cls, kernel, _kernel_span(kernel), _count_rows(kernel))


def end_op(tracer: Tracer) -> List[dict]:
    """Add the spans and the engine and cache counters of the operation
    that just ran to ``tracer``; return its spans.

    Every workload builds fresh sessions per operation, so the engines
    created during it (registered by the ``EvaluationEngine.__init__``
    observer) start their counters at zero; engines of one session share
    one cache, which is counted once.
    """
    caches = {}
    for engine in tracer.engines:
        tracer.add("engine.simulations", engine.num_simulations)
        tracer.add("engine.evaluations", engine.num_evaluations)
        caches[id(engine.cache)] = engine.cache
    for cache in caches.values():
        tracer.add("engine.cache_hits", cache.hits)
        tracer.add("engine.cache_misses", cache.misses)
        for tier, value in cache.tier_counters().items():
            if tier in ("l1_hits", "db_hits", "misses", "evictions"):
                tracer.add(f"engine.cache_tier.{tier}", value)
    tracer.engines.clear()
    return tracer.collect()


def per_layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-operation values of every catalog metric except RUN_METRICS."""
    values: Dict[str, float] = {
        "cli.import_s": tracer.self_s("cli.import") / ops,
    }
    for span, prefix, parts in SPANS:
        if not parts:
            values[prefix] = tracer.self_s(span) / ops
        if "calls" in parts:
            values[f"{prefix}.calls"] = tracer.calls(span) / ops
        if "self_s" in parts:
            values[f"{prefix}.self_s"] = tracer.self_s(span) / ops
    counts = tracer.counts
    for name in COUNTS:
        values[name] = counts.get(name, 0) / ops
    measured = counts.get("tuner.measurements", 0)
    values["tuner.valid_ratio"] = (
        counts.get("tuner.valid", 0) / measured if measured else 0.0)
    lookups = counts.get("engine.cache_hits", 0) + counts.get(
        "engine.cache_misses", 0)
    values["engine.cache_hit_ratio"] = (
        counts.get("engine.cache_hits", 0) / lookups if lookups else 0.0)
    for controller, kernels in KERNELS.items():
        for kernel in kernels:
            span = f"stonne.{controller}.{kernel}"
            values[f"{span}.calls"] = tracer.calls(span) / ops
            values[f"{span}.rows"] = counts.get(f"{span}.rows", 0) / ops
            values[f"{span}.self_s"] = tracer.self_s(span) / ops
    return values


def untracked_spans(tracer: Tracer) -> List[str]:
    """Spans recorded that no catalog metric reports (their time is
    still attributed, so they are listed rather than lost silently)."""
    reported = {span for span, _, _ in SPANS} | {"cli.import"}
    reported |= {f"stonne.{c}.{k}" for c, ks in KERNELS.items() for k in ks}
    return sorted(name for name in tracer.totals if name not in reported)
