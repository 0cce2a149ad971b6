"""Pull-queue scheduling: the one way backends run work.

Every engine group's cache misses are cut into chunks, interleaved
across groups and put on one shared queue before any puller starts.
One *puller* per backend slot
(:meth:`~repro.engine.backends.ExecutorBackend.pull_slots`) pops the
next chunk until the queue is empty, so engine groups overlap — a slot
that finishes config A's chunks immediately pulls config B's instead of
waiting for a group barrier — and a slot stuck on a slow chunk leaves
the rest of the queue to the others.

The calling thread drains the first slot itself and one puller thread
runs each further slot.  A one-slot backend (serial, a pool of width
one, a fleet with no reachable worker) therefore starts no thread,
keeps the caller's thread-local controller, and runs each group as a
single chunk.

Determinism: each chunk runs exactly once, on whichever slot pulls it,
and every simulation is a pure function of (config, params, layer,
mapping), so results are bit-identical to ``--executor serial`` no
matter which slot ran what.

Chunk grouping: a chunk is executed by the backend's ``run_chunk``,
which groups the chunk's items by layer (dataclass equality) and makes
one controller batch-kernel call per multi-item group — each chunk
already belongs to exactly one engine, so (engine fingerprint,
structural layer) is the effective grouping key.  Singleton groups run
through the scalar ``simulate_layer`` seam; results are bit-identical
either way (see :func:`repro.engine.backends.simulate_chunk`).

:func:`run_plan_groups` is the entry point: the sweep runner hands it
every engine's plans at once; ``EvaluationEngine.run_plans`` is the
single-group special case.  Groups whose engines resolve to different
backends are drained one backend at a time.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import TRACER

#: Auto chunk sizing: aim for this many chunks per slot per group (load
#: balancing granularity) ...
DEFAULT_CHUNKS_PER_SLOT = 4

#: ... without ever exceeding this many items per chunk (bounds the
#: work a slow slot holds while the others run dry).
MAX_CHUNK_ITEMS = 32

#: Registry namespace the scheduler's counters live under.
SCHEDULER_METRIC_PREFIX = "scheduler."


def zero_counters() -> Dict[str, Any]:
    """A fresh all-zero scheduler counter dict."""
    return {"chunks_pulled": 0}


class Chunk(NamedTuple):
    """One pullable unit: consecutive work items of one engine group.

    ``start`` is the first item's position in the group's flattened
    work list.
    """

    engine: Any
    group: int
    start: int
    items: List[Tuple[Optional[Hashable], Any]]


def backend_counters(backend) -> Dict[str, Any]:
    """Cumulative scheduler counters of a backend (zeros if never used).

    The counters are typed :class:`~repro.obs.metrics.Counter`
    instruments under ``scheduler.<key>`` in the backend's registry;
    this is the plain-dict view reports and the CLI print.
    """
    registry = backend.metrics
    return {
        "chunks_pulled": registry.value(
            SCHEDULER_METRIC_PREFIX + "chunks_pulled"
        )
    }


# ----------------------------------------------------------------------
# chunking
# ----------------------------------------------------------------------
def _auto_chunk_size(work_size: int, num_slots: int) -> int:
    """Items per chunk: ~DEFAULT_CHUNKS_PER_SLOT chunks per slot, capped."""
    target = max(1, -(-work_size // (num_slots * DEFAULT_CHUNKS_PER_SLOT)))
    return min(MAX_CHUNK_ITEMS, target)


def _chunk_group(engine, group: int, work, chunk_size: int) -> List[Chunk]:
    return [
        Chunk(engine, group, start, list(work[start : start + chunk_size]))
        for start in range(0, len(work), chunk_size)
    ]


def _interleave(per_group: List[List[Chunk]]) -> List[Chunk]:
    """Round-robin across groups so engine groups overlap from pull #1."""
    out: List[Chunk] = []
    cursors = [0] * len(per_group)
    remaining = sum(len(chunks) for chunks in per_group)
    while remaining:
        for group, chunks in enumerate(per_group):
            cursor = cursors[group]
            if cursor < len(chunks):
                out.append(chunks[cursor])
                cursors[group] = cursor + 1
                remaining -= 1
    return out


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def run_plan_groups(
    groups: Sequence[Tuple[Any, Sequence[Any]]], *, return_errors: bool = False
) -> Dict[str, Any]:
    """Execute the pending misses of several engines' plans.

    ``groups`` is ``[(engine, [BatchPlan, ...]), ...]``.  Each group's
    misses are flattened with cross-plan dedup (the engine's own
    :meth:`~repro.engine.EvaluationEngine.run_plans` semantics), then
    chunked onto one queue per backend and drained by one puller per
    slot the backend advertises.  Groups run on their engine's
    ``backend``; groups whose engines share one backend instance share
    one queue, drained on as many slots as that backend offers.

    Returns the scheduler counter report for this invocation, summed
    over backends.  Errors obey ``return_errors`` exactly like
    ``run_plans``: every plan is fully resolved, then the first per-item
    error (in group, then submission order) is raised.
    """
    from repro.errors import SimulationError

    for engine, plans in groups:
        for plan in plans:
            if plan.engine is not engine:
                raise SimulationError(
                    "run_plan_groups received a BatchPlan built by a "
                    "different engine"
                )

    collected: List[Tuple[Any, Sequence[Any], List, List]] = []
    by_backend: Dict[int, Tuple[Any, List]] = {}
    for engine, plans in groups:
        work, owners = engine._collect_pending(plans)
        entry = (engine, plans, work, owners)
        collected.append(entry)
        if work:
            backend = engine.backend
            by_backend.setdefault(id(backend), (backend, []))[1].append(entry)

    report = zero_counters()
    for backend, entries in by_backend.values():
        pulled = _run_scheduled(
            entries, backend, backend.pull_slots(entries[0][0])
        )
        backend.metrics.counter(
            SCHEDULER_METRIC_PREFIX + "chunks_pulled"
        ).inc(pulled)
        report["chunks_pulled"] += pulled

    for _engine, plans, _work, _owners in collected:
        for plan in plans:
            plan._resolve_duplicates()
    first_error = _first_error(collected)
    if first_error is not None and not return_errors:
        raise first_error
    return report


def _first_error(collected) -> Optional[Exception]:
    """The first per-item error in group, then submission order."""
    for _engine, plans, work, owners in collected:
        for slot, owner_list in enumerate(owners):
            plan, position = owner_list[0]
            payload = plan.results[position]
            if isinstance(payload, Exception):
                return payload
    return None


def _run_scheduled(entries, backend, slots: List) -> int:
    """Chunk, enqueue and drain one backend's groups; returns the number
    of chunks run."""
    with TRACER.span(
        "scheduler.pull", category="scheduler",
        groups=len(entries), slots=len(slots),
    ):
        per_group: List[List[Chunk]] = []
        for group, (engine, _plans, work, _owners) in enumerate(entries):
            if len(slots) == 1:
                size = len(work)  # nothing to balance: one batch per group
            else:
                size = _auto_chunk_size(len(work), len(slots))
            per_group.append(_chunk_group(engine, group, work, size))
        queue = deque(_interleave(per_group))
        pulled = len(queue)
        results: List[List[Optional[Tuple]]] = [
            [None] * len(work) for _engine, _plans, work, _owners in entries
        ]

        # The calling thread is the first slot's puller; each further
        # slot gets a thread of its own.
        pullers = [
            threading.Thread(
                target=_drain,
                args=(queue, results, backend, slot),
                name=f"repro-puller-{index}",
                daemon=True,
            )
            for index, slot in enumerate(slots[1:], start=1)
        ]
        for thread in pullers:
            thread.start()
        _drain(queue, results, backend, slots[0])
        for thread in pullers:
            thread.join()

        # Merge on the calling thread: cache writes and plan mutation
        # stay single-threaded.
        for group, (engine, _plans, work, owners) in enumerate(entries):
            engine._merge_results(work, owners, results[group])
        return pulled


def _slot_lane(slot) -> str:
    """A trace lane per backend slot (remote tokens flattened)."""
    if isinstance(slot, tuple):
        return "slot-" + "-".join(str(part) for part in slot)
    return f"slot-{slot}"


def _drain(queue: deque, results: List[List], backend, slot) -> None:
    """One puller: pop, execute and record chunks until the queue is
    empty.  Each chunk is popped by exactly one puller, so every result
    position is written once."""
    lane = _slot_lane(slot)
    latency = backend.metrics.histogram(
        SCHEDULER_METRIC_PREFIX + "chunk_latency_s"
    )
    while True:
        try:
            chunk = queue.popleft()  # deque pops are thread-safe
        except IndexError:
            return
        started = time.perf_counter()
        with TRACER.span(
            "scheduler.chunk", category="scheduler", lane=lane,
            items=len(chunk.items), group=chunk.group,
        ):
            try:
                chunk_results = backend.run_chunk(
                    chunk.engine, chunk.items, slot=slot
                )
            except Exception as exc:  # infrastructure failure: fail items
                chunk_results = [(key, exc) for key, _request in chunk.items]
        latency.observe(time.perf_counter() - started)
        out = results[chunk.group]
        for offset, result in enumerate(chunk_results):
            out[chunk.start + offset] = result
