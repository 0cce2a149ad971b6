"""repro.obs — observability: span tracing and a metrics registry.

Two pillars:

* :mod:`repro.obs.trace` — a process-global span tracer (``TRACER``)
  with a no-op fast path when disabled, plus Chrome trace-event
  export and a human summary.  Enable with ``--trace`` (the
  ``[observability]`` config section); the session writes the trace
  file on close.
* :mod:`repro.obs.metrics` — typed counters / gauges / histograms
  that absorb the scheduler counters, per-tier cache hit rates,
  simulations/sec throughput and fleet per-worker health, and
  serialise into the ``metrics`` section of run/sweep reports.

The names above load lazily, each with its submodule on first lookup
(:func:`repro._lazy.lazy_exports`): every tier imports the tracer, and
only runs that report metrics need the registry.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "trace": (
        "CATEGORIES", "TRACE_VERSION", "TRACER", "Tracer", "chrome_events",
        "get_tracer", "read_trace", "spans_from_document", "summarize_spans",
        "trace_document", "unattributed_time", "write_trace",
    ),
})
