"""Trace a sweep: spans for every tier, metrics on the report.

The observability layer (``repro.obs``) answers "where did the sweep's
time go?" without a profiler run:

1. ``trace=True`` on the session records spans from every tier —
   ``session.sweep`` → ``sweep.execute`` → ``engine.plan_many`` /
   ``cache.lookup`` → one lane per scheduler slot with a
   ``scheduler.chunk`` span per pulled chunk — and writes a Chrome
   trace-event file at ``close()``.  Load it in
   ``chrome://tracing`` / Perfetto, or render the self-time table with
   ``repro trace summary``;
2. ``metrics=True`` attaches a ``metrics`` section to the reports:
   wall time, simulations/sec, per-tier cache hit rates, the
   scheduler's chunk-latency histogram — it survives the JSON
   round-trip, so ``repro report diff`` shows its deltas between two
   archived runs;
3. tracing off is the default and costs one no-op check per call site
   (<2%, gated by ``benchmarks/bench_obs_overhead.py``), so the
   instrumentation stays in production code paths.

Run:  python examples/trace_sweep.py
"""

import json
import tempfile
from pathlib import Path

from repro.obs import read_trace, spans_from_document, summarize_spans
from repro.session import Session
from repro.sweep import SweepPlan

workdir = Path(tempfile.mkdtemp(prefix="trace_sweep_"))
trace_path = workdir / "sweep_trace.json"

# -- 1. a traced, metered sweep over the process executor -------------
with Session(
    executor="process",
    max_workers=2,
    trace=True,
    trace_path=str(trace_path),
    metrics=True,
) as session:
    plan = SweepPlan.matrix(session.config, models=["mlp", "lenet"])
    report = session.sweep(plan)

print(report.summary())
print()

# -- 2. the metrics section rides on the report (and its JSON form) ---
metrics = report.metrics
print(f"wall time:        {metrics['wall_s']:.3f} s")
print(f"simulations/sec:  {metrics['simulations_per_s']:,.0f}")
print(f"cache hit rate:   {metrics['cache']['hit_rate']:.1%} "
      f"(tiers: {metrics['cache']['tiers'] or 'in-memory only'})")
print(f"scheduler:        {metrics['scheduler']}")
archived = json.loads(report.to_json())
assert archived["metrics"]["simulations"] == metrics["simulations"]
print()

# -- 3. the trace file: Chrome-loadable, summarizable -----------------
doc = read_trace(str(trace_path))
spans = spans_from_document(doc)
print(f"trace: {len(doc['traceEvents'])} Chrome events, "
      f"{len(spans)} raw spans -> {trace_path}")
print(f"tiers covered: {sorted({span['cat'] for span in spans})}")
print()
print(summarize_spans(spans, doc["reproTrace"]["metrics"], top=8))
print()
print(f"open in chrome://tracing, or: repro trace summary {trace_path}")
