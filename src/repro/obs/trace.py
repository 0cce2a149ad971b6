"""Low-overhead span tracer with Chrome trace-event export.

The tracer is a process-global singleton (``TRACER``) recording
nestable, thread-safe spans on a monotonic clock
(``time.perf_counter``).  Every span carries a name, a category (the
stack tier that emitted it: ``session`` / ``sweep`` / ``engine`` /
``scheduler`` / ``cache`` / ``fleet``), a *lane* (the horizontal row
it lands on in a Chrome trace — by default the emitting thread's
name, or an explicit lane such as ``slot-3`` for a scheduler slot),
and free-form attributes.

The contract that keeps instrumentation essentially free when
tracing is off: ``Tracer.span`` checks one attribute and returns a
cached no-op context manager, so a disabled call site costs a method
call and nothing else — no allocation, no lock, no clock read.  The
``bench_obs_overhead`` benchmark holds this under 2% of wall time on
``bench_kernels``-scale work.

Trace files written by :func:`write_trace` are valid Chrome
trace-event JSON (load them in ``chrome://tracing`` or Perfetto —
both ignore the extra top-level keys) *and* carry the raw span list
under ``reproTrace`` so ``repro trace summary`` can recompute
self-time without lossy round-tripping through the event form.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: Schema version of the ``reproTrace`` section in saved trace files.
TRACE_VERSION = 1

#: Span categories, one per stack tier (used by smoke checks).
CATEGORIES = (
    "session", "sweep", "mapping", "bifrost", "engine", "scheduler",
    "cache", "fleet", "serve",
)


class _NullSpan:
    """The disabled fast path: a single cached, do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself on the owning tracer at exit."""

    __slots__ = ("_tracer", "name", "category", "lane", "attrs",
                 "_start", "_child_s", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 lane: Optional[str], attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.lane = lane
        self.attrs = attrs
        self._start = 0.0
        self._child_s = 0.0
        self._depth = 0

    def set(self, **attrs: Any) -> "_Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        duration = end - self._start
        if stack:
            stack[-1]._child_s += duration
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._record({
            "name": self.name,
            "cat": self.category,
            "lane": self.lane or threading.current_thread().name,
            "ts": self._start - tracer._epoch,
            "dur": duration,
            "self": max(duration - self._child_s, 0.0),
            "depth": self._depth,
            "kind": "span",
            "args": self.attrs,
        })
        return False


class Tracer:
    """Thread-safe span recorder with a no-op path when disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        with self._lock:
            self._spans = []
            self._epoch = time.perf_counter()
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans = []
            self._epoch = time.perf_counter()

    # -- recording -------------------------------------------------------
    def span(self, name: str, category: str = "repro",
             lane: Optional[str] = None, **attrs: Any):
        """Context manager timing a span; a cached no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, category, lane, attrs)

    def instant(self, name: str, category: str = "repro",
                lane: Optional[str] = None, **attrs: Any) -> None:
        """Record a zero-duration marker (Chrome "instant" event)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "cat": category,
            "lane": lane or threading.current_thread().name,
            "ts": time.perf_counter() - self._epoch,
            "dur": 0.0,
            "self": 0.0,
            "depth": 0,
            "kind": "instant",
            "args": attrs,
        })

    def add_span(self, name: str, category: str, lane: str,
                 start: float, duration: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record an externally timed span.

        ``start`` is a ``time.perf_counter`` value from *this*
        process.  Remote work whose clock is not synchronised (a fleet
        worker's batch timing) is placed by the caller — conventionally
        right-aligned inside the local round-trip span that shipped it.
        """
        if not self.enabled:
            return
        self._record({
            "name": name,
            "cat": category,
            "lane": lane,
            "ts": start - self._epoch,
            "dur": duration,
            "self": duration,
            "depth": 0,
            "kind": "span",
            "args": dict(attrs or {}),
        })

    def _record(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(span)

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- access ----------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The process-global tracer every instrumentation point talks to.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


# -- Chrome trace-event export ------------------------------------------


def chrome_events(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Spans as Chrome trace events (X = complete, i = instant).

    Lanes become synthetic integer thread ids with ``thread_name``
    metadata events so chrome://tracing / Perfetto label each row.
    """
    pid = os.getpid()
    lanes: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        lane = str(span.get("lane", "main"))
        if lane not in lanes:
            lanes[lane] = len(lanes) + 1
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": lane},
        })
    for span in spans:
        tid = lanes[str(span.get("lane", "main"))]
        event: Dict[str, Any] = {
            "name": span["name"],
            "cat": span.get("cat", "repro"),
            "pid": pid,
            "tid": tid,
            "ts": round(span["ts"] * 1e6, 3),
            "args": dict(span.get("args") or {}),
        }
        if span.get("kind") == "instant":
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(span["dur"] * 1e6, 3)
        events.append(event)
    return events


def trace_document(spans: List[Dict[str, Any]],
                   metrics: Optional[Dict[str, Any]] = None,
                   meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The on-disk trace form: Chrome-loadable plus the raw spans."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_events(spans),
        "reproTrace": {
            "version": TRACE_VERSION,
            "spans": spans,
            "metrics": dict(metrics or {}),
            "meta": dict(meta or {}),
        },
    }


def write_trace(path: str, spans: List[Dict[str, Any]],
                metrics: Optional[Dict[str, Any]] = None,
                meta: Optional[Dict[str, Any]] = None) -> str:
    doc = trace_document(spans, metrics=metrics, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spans_from_document(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Raw spans from a trace document.

    Prefers the lossless ``reproTrace`` section; falls back to
    reconstructing from Chrome ``X``/``i`` events (a plain Chrome file
    exported elsewhere still summarises, minus self-time precision).
    """
    section = doc.get("reproTrace")
    if isinstance(section, dict) and isinstance(section.get("spans"), list):
        return list(section["spans"])
    spans: List[Dict[str, Any]] = []
    names: Dict[int, str] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event.get("tid", 0)] = event.get("args", {}).get(
                "name", str(event.get("tid", 0)))
    for event in doc.get("traceEvents", []):
        if event.get("ph") not in ("X", "i"):
            continue
        dur = float(event.get("dur", 0.0)) / 1e6
        spans.append({
            "name": event.get("name", "?"),
            "cat": event.get("cat", "repro"),
            "lane": names.get(event.get("tid", 0), str(event.get("tid", 0))),
            "ts": float(event.get("ts", 0.0)) / 1e6,
            "dur": dur,
            "self": dur,
            "depth": 0,
            "kind": "instant" if event.get("ph") == "i" else "span",
            "args": dict(event.get("args") or {}),
        })
    return spans


# -- summary -------------------------------------------------------------


def summarize_spans(spans: List[Dict[str, Any]],
                    metrics: Optional[Dict[str, Any]] = None,
                    top: int = 12) -> str:
    """Human summary: top spans by self-time, hit rates, slot usage."""
    by_name: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span.get("kind") == "instant":
            continue
        row = by_name.setdefault(span["name"], {
            "count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += span.get("dur", 0.0)
        row["self"] += span.get("self", span.get("dur", 0.0))
    lines: List[str] = []
    lines.append(f"trace: {len(spans)} spans, {len(by_name)} names")
    if by_name:
        lines.append(
            f"{'span':<28}{'count':>7}{'total s':>10}{'self s':>10}")
        ranked = sorted(
            by_name.items(), key=lambda kv: kv[1]["self"], reverse=True)
        for name, row in ranked[:top]:
            lines.append(
                f"{name:<28}{int(row['count']):>7}"
                f"{row['total']:>10.4f}{row['self']:>10.4f}")
    lines.extend(_slot_utilization_lines(spans))
    lines.extend(_metrics_lines(metrics or {}))
    return "\n".join(lines)


def _slot_utilization_lines(spans: List[Dict[str, Any]]) -> List[str]:
    slots: Dict[str, float] = {}
    window_start = None
    window_end = None
    for span in spans:
        if span.get("cat") != "scheduler" or span.get("kind") == "instant":
            continue
        lane = str(span.get("lane", ""))
        if not lane.startswith("slot-"):
            continue
        slots[lane] = slots.get(lane, 0.0) + span.get("dur", 0.0)
        start = span.get("ts", 0.0)
        end = start + span.get("dur", 0.0)
        window_start = start if window_start is None else min(window_start, start)
        window_end = end if window_end is None else max(window_end, end)
    if not slots:
        return []
    window = max((window_end or 0.0) - (window_start or 0.0), 1e-9)
    lines = ["slot utilization:"]
    for lane in sorted(slots):
        busy = slots[lane]
        lines.append(
            f"  {lane:<12}{busy:>10.4f}s busy  "
            f"({100.0 * busy / window:5.1f}% of {window:.4f}s window)")
    return lines


def _metrics_lines(metrics: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    cache = metrics.get("cache")
    if isinstance(cache, dict):
        rate = cache.get("hit_rate")
        if rate is not None:
            lines.append(f"cache hit rate: {100.0 * rate:.1f}%")
        tiers = cache.get("tiers")
        if isinstance(tiers, dict):
            parts = [f"{key}={value}" for key, value in sorted(tiers.items())]
            if parts:
                lines.append("cache tiers: " + ", ".join(parts))
    sims = metrics.get("simulations_per_s")
    if sims:
        lines.append(f"throughput: {sims:,.0f} simulations/s")
    return lines
