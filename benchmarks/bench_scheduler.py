"""Pull scheduler benchmark: one pull queue on 1 vs 4 slots.

A scenario-matrix sweep is *skewed* in practice: hardware configs differ
in simulation cost, a few layers dominate a model, and fleet workers run
at unequal speeds.  The pull scheduler
(:func:`repro.engine.scheduler.run_plan_groups`) drains all engine
groups through one shared queue: slots pull the next chunk as they
finish, stragglers of every group run concurrently from pull #1, and
while a slot is held by a straggler the other slots drain the rest.
Chunk size is automatic: 12 items per group on 4 slots gives one item
per chunk.

This bench builds a multi-engine sweep (one engine per SIGMA size) whose
groups each contain one *straggler* layer — its simulation blocks for a
fixed latency, emulating the heavyweight-functional / slow-remote-worker
regime on any machine, including single-core CI — plus a tail of cheap
layers.  It is a mechanism test: the injected sleeps stand in for work,
so its speedups say the scheduler overlaps stragglers, not how fast any
real workload runs.  It times two arms over identical work:

* **serial** — the one-slot queue drained on the calling thread (also
  the bit-identity reference and the "total busy time" used for the
  utilization estimate);
* **pull** — ``run_plan_groups`` over all groups on a 4-worker process
  pool.

Results must be bit-identical across both arms, and the pull arm must
beat serial by >= 1.5x wall-clock.  Emits
``BENCH_scheduler.json`` with the wall times, the utilization estimates
and the scheduler's chunk count.

The straggler latency is injected by wrapping
``repro.engine.backends.simulate_layer`` *before* the process pool
forks, so the workers inherit it; the speedup band is asserted only
where that inheritance holds (fork start method, i.e. Linux).
"""

import json
import multiprocessing
import time

from conftest import SMOKE, emit, scaled

import repro.engine.backends as backends_mod
from repro.engine import EvalRequest, EvaluationEngine
from repro.engine.backends import ProcessBackend
from repro.engine.scheduler import run_plan_groups
from repro.stonne.config import sigma_config
from repro.stonne.layer import FcLayer

#: One engine group per SIGMA multiplier-switch size.
GROUP_SIZES = [16, 32, 64, 128][: scaled(4, 2)]
#: Cheap layers per group besides the straggler.
LIGHT_LAYERS = scaled(11, 3)
#: Injected straggler latency (seconds of blocking per slow layer).
SLOW_S = 0.5 if not SMOKE else 0.1
WORKERS = 4

_REAL_SIMULATE = backends_mod.simulate_layer


def _skewed_simulate(controller, layer, mapping, functional):
    """The real simulation, plus a blocking delay for straggler layers."""
    if layer.name.startswith("slow"):
        time.sleep(SLOW_S)
    return _REAL_SIMULATE(controller, layer, mapping, functional)


def _group_layers(group: int):
    """One straggler plus LIGHT_LAYERS cheap FC layers (distinct shapes)."""
    return [FcLayer(f"slow{group}", in_features=128, out_features=128)] + [
        FcLayer(f"light{group}.{i}", in_features=32 + i, out_features=32)
        for i in range(LIGHT_LAYERS)
    ]


def _engines(backend):
    """One engine per SIGMA size, all sharing ``backend``."""
    return [
        EvaluationEngine(sigma_config(ms_size=size), executor=backend)
        for size in GROUP_SIZES
    ]


def _stats_dicts(plans):
    return [s.to_dict() for plan in plans for s in plan.results]


def _serial_arm():
    """Single-slot reference: results + the workload's total busy time."""
    start = time.perf_counter()
    stats = []
    for group, size in enumerate(GROUP_SIZES):
        engine = EvaluationEngine(sigma_config(ms_size=size))
        for result in engine.evaluate_many(
            [EvalRequest(l) for l in _group_layers(group)]
        ):
            stats.append(result.to_dict())
    return time.perf_counter() - start, stats


def _pull_arm(backend):
    """All groups through one pull queue on the same pool."""
    engines = _engines(backend)
    start = time.perf_counter()
    groups = []
    plans = []
    for group, engine in enumerate(engines):
        plan = engine.plan_many(
            [EvalRequest(l) for l in _group_layers(group)]
        )
        plans.append(plan)
        groups.append((engine, [plan]))
    report = run_plan_groups(groups)
    return time.perf_counter() - start, _stats_dicts(plans), report


def _warm_pool(backend):
    """Fork the pool and build every worker's controllers before timing."""
    groups = []
    for engine in _engines(backend):
        plan = engine.plan_many([
            EvalRequest(FcLayer(f"warm{i}", in_features=8 + i, out_features=8))
            for i in range(2 * WORKERS)
        ])
        groups.append((engine, [plan]))
    run_plan_groups(groups)


def _run():
    backends_mod.simulate_layer = _skewed_simulate
    backend = ProcessBackend(max_workers=WORKERS)
    try:
        serial_s, serial_stats = _serial_arm()
        _warm_pool(backend)
        pull_s, pull_stats, report = _pull_arm(backend)
    finally:
        backend.close()
        backends_mod.simulate_layer = _REAL_SIMULATE
    return {
        "serial_s": serial_s,
        "pull_s": pull_s,
        "serial_stats": serial_stats,
        "pull_stats": pull_stats,
        "report": report,
    }


def test_scheduler_saturation(benchmark, results_dir):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = out["serial_s"] / out["pull_s"]
    items = len(GROUP_SIZES) * (1 + LIGHT_LAYERS)
    # Utilization: busy time (the serial wall clock) over slot-seconds.
    util_pull = out["serial_s"] / (WORKERS * out["pull_s"])
    record = {
        "benchmark": "scheduler",
        "smoke": SMOKE,
        "groups": len(GROUP_SIZES),
        "items": items,
        "workers": WORKERS,
        "straggler_latency_s": SLOW_S,
        "serial_s": round(out["serial_s"], 4),
        "pull_s": round(out["pull_s"], 4),
        "pull_speedup_vs_serial": round(speedup, 3),
        "utilization_pull": round(util_pull, 4),
        "bit_identical": out["pull_stats"] == out["serial_stats"],
        "counters": out["report"],
    }
    (results_dir / "BENCH_scheduler.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"{len(GROUP_SIZES)} engine groups x {1 + LIGHT_LAYERS} layers "
        f"({items} items), 1 straggler/group at {SLOW_S:.1f}s, "
        f"process pool x{WORKERS}",
        f"{'':<10}{'wall s':>10}{'utilization':>13}",
        f"{'serial':<10}{out['serial_s']:>10.3f}{'':>13}",
        f"{'pull':<10}{out['pull_s']:>10.3f}{util_pull:>12.0%}",
        f"pull vs serial: {speedup:.2f}x   "
        f"counters: {out['report']['chunks_pulled']} pulls",
    ]
    emit(results_dir, "scheduler", "\n".join(lines))

    # Correctness first: both arms bit-identical.
    assert out["pull_stats"] == out["serial_stats"]
    # The straggler injection only reaches pool workers where the pool
    # forks (Linux); without it there is no skew to reclaim.
    if not SMOKE and multiprocessing.get_start_method() == "fork":
        assert speedup >= 1.5, f"pull speedup only {speedup:.2f}x"
