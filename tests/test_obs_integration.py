"""Integration tests for the observability layer: spans through real
sessions/backends, worker-side timing over the wire, report metrics
round-trips, and metrics deltas in report diffs.

The global ``TRACER`` is shared process state — every test that
enables it goes through the ``traced`` fixture so a failure can never
leak an enabled tracer into the rest of the suite.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import EvaluationEngine, StatsCache, backend_counters
from repro.fleet.remote_backend import RemoteBackend
from repro.fleet.worker import start_worker
from repro.models import lenet_graph
from repro.obs import TRACER
from repro.session import Session
from repro.session.reports import RunReport
from repro.stonne.config import sigma_config
from repro.stonne.layer import FcLayer
from repro.sweep import SweepPlan, SweepReport, diff_reports


@pytest.fixture
def traced():
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


def _categories():
    return {span["cat"] for span in TRACER.spans()}


LOCAL_TIERS = {"session", "sweep", "engine", "scheduler", "cache"}


# ----------------------------------------------------------------------
# spans across real backends
# ----------------------------------------------------------------------
class TestSessionTracing:
    @pytest.mark.parametrize("executor", ["multi-slot", "process"])
    def test_sweep_covers_every_local_tier(self, executor, traced, multi_slot):
        with Session(executor=executor, max_workers=2) as session:
            plan = SweepPlan.matrix(session.config, models=["mlp", "lenet"])
            session.sweep(plan)
        assert LOCAL_TIERS <= _categories()
        chunk_spans = [
            s for s in TRACER.spans() if s["name"] == "scheduler.chunk"
        ]
        assert chunk_spans
        assert all(s["lane"].startswith("slot-") for s in chunk_spans)

    def test_mapper_and_batched_sqlite_writes_are_spans(
        self, tmp_path, traced
    ):
        with Session(executor="serial", mapping="mrna",
                     cache_path=str(tmp_path / "c.sqlite")) as session:
            report = session.sweep(
                SweepPlan.matrix(session.config, models=["mlp", "lenet"]))
        spans = TRACER.spans()
        mrna = [s for s in spans if s["name"] == "mapping.mrna"]
        # One per distinct layer shape: mlp's 3 and lenet's 5.
        assert len(mrna) == 8 and {s["cat"] for s in mrna} == {"mapping"}
        writes = [s for s in spans if s["name"] == "cache.put_many"]
        assert writes and all(s["cat"] == "cache" for s in writes)
        assert all(s["args"]["tier"] == "sqlite" for s in writes)
        rows = sum(s["args"]["rows"] for s in writes)
        assert rows == report.counters["num_simulations"]

    def test_session_owns_tracer_and_writes_file(self, tmp_path, multi_slot):
        path = tmp_path / "trace.json"
        with Session(executor="multi-slot", max_workers=2, trace=True,
                     trace_path=str(path)) as session:
            session.run("mlp")
            assert TRACER.enabled
            assert session.trace_path is None  # written at close
        assert not TRACER.enabled
        assert session.trace_path == str(path)
        doc = json.loads(path.read_text())
        categories = {s["cat"] for s in doc["reproTrace"]["spans"]}
        assert LOCAL_TIERS <= categories
        # Trace-only runs still embed the hit-rate metrics.
        assert "cache" in doc["reproTrace"]["metrics"]

    def test_nested_session_does_not_steal_the_trace(self, traced):
        with Session(executor="serial", trace=True) as session:
            session.run("mlp")
        # The outer fixture enabled tracing, so the session must not
        # have disabled it or written a file on close.
        assert TRACER.enabled
        assert session.trace_path is None
        assert len(TRACER.spans()) > 0

    @pytest.mark.parametrize("arch", ["maeri", "sigma"])
    def test_functional_graph_run_spans_each_offloaded_datapath(
        self, arch, traced
    ):
        feeds = {"data": np.random.default_rng(0).normal(size=(1, 1, 28, 28))}
        with Session(arch=arch, functional=True, executor="serial") as session:
            # The second run is all cache hits; its layers still compute.
            runs = [session.run_graph(lenet_graph(), feeds) for _ in range(2)]
        datapath = [s for s in TRACER.spans() if s["name"] == "bifrost.datapath"]
        assert {s["cat"] for s in datapath} == {"bifrost"}
        layers = [stats.layer_name for run in runs for stats in run.layer_stats]
        assert layers == ["conv1", "conv2", "fc1", "fc2", "fc3"] * 2
        assert [(s["args"]["layer"], s["args"]["op"]) for s in datapath] == [
            (name, "dense" if name.startswith("fc") else "conv2d")
            for name in layers
        ]


# ----------------------------------------------------------------------
# fleet: worker-side timing over the wire
# ----------------------------------------------------------------------
def _fc_requests(n=4):
    from repro.engine.evaluation import EvalRequest

    return [
        EvalRequest(layer=FcLayer(f"fc{i}", 4 + i, 8), mapping=None)
        for i in range(n)
    ]


class TestFleetTiming:
    def test_worker_timing_becomes_remote_spans(self, traced):
        server, _ = start_worker()
        try:
            engine = EvaluationEngine(
                sigma_config(ms_size=8),
                cache=StatsCache(),
                executor=RemoteBackend(workers=[server.address]),
            )
            engine.evaluate_many(_fc_requests())
            engine.close()
        finally:
            server.close()
        fleet = [s for s in TRACER.spans() if s["cat"] == "fleet"]
        names = {s["name"] for s in fleet}
        assert "fleet.shard" in names
        assert "fleet.worker" in names
        worker_span = next(s for s in fleet if s["name"] == "fleet.worker")
        shard_span = next(s for s in fleet if s["name"] == "fleet.shard")
        # Worker-side timing rode back through the results message and
        # was right-aligned inside the client round trip.
        assert worker_span["args"]["simulated"] == 4
        assert 0 <= worker_span["dur"] <= shard_span["dur"] + 0.001
        assert worker_span["lane"].startswith("fleet-")

    def test_worker_health_lands_in_backend_metrics(self):
        server, _ = start_worker()
        try:
            backend = RemoteBackend(workers=[server.address])
            engine = EvaluationEngine(
                sigma_config(ms_size=8), cache=StatsCache(),
                executor=backend,
            )
            engine.evaluate_many(_fc_requests())
            counters = backend.metrics.snapshot()["counters"]
            assert counters[f"fleet.shards.{server.address}"] >= 1
            assert counters[f"fleet.items.{server.address}"] == 4
            hist = backend.metrics.get("fleet.worker_duration_s")
            assert hist.count >= 1
            engine.close()
        finally:
            server.close()

    def test_old_worker_without_timing_is_tolerated(self, traced,
                                                    monkeypatch):
        # Version skew: a pre-observability worker's results message
        # has no "timing" key.  Strip it at the link layer — the run
        # must succeed with no fleet.worker span and no error.
        from repro.fleet import remote_backend as rb

        original = rb._WorkerLink.request

        def skewed(self, message):
            response = original(self, message)
            response.pop("timing", None)
            return response

        monkeypatch.setattr(rb._WorkerLink, "request", skewed)
        server, _ = start_worker()
        try:
            engine = EvaluationEngine(
                sigma_config(ms_size=8), cache=StatsCache(),
                executor=RemoteBackend(workers=[server.address]),
            )
            results = engine.evaluate_many(_fc_requests())
            assert len(results) == 4
            engine.close()
        finally:
            server.close()
        names = {s["name"] for s in TRACER.spans() if s["cat"] == "fleet"}
        assert "fleet.shard" in names
        assert "fleet.worker" not in names


# ----------------------------------------------------------------------
# report metrics round-trips
# ----------------------------------------------------------------------
class TestReportMetrics:
    def test_sweep_report_metrics_round_trip(self, multi_slot):
        with Session(executor="multi-slot", max_workers=2,
                     metrics=True) as session:
            plan = SweepPlan.matrix(session.config, models=["mlp"])
            report = session.sweep(plan)
        assert report.metrics["simulations"] > 0
        assert 0.0 <= report.metrics["cache"]["hit_rate"] <= 1.0
        rebuilt = SweepReport.from_json(report.to_json())
        assert rebuilt.metrics == json.loads(json.dumps(report.metrics))
        # The scenario's RunReport carries the same section.
        run = rebuilt.scenarios[0].report
        assert run.metrics["cache"]["hit_rate"] == (
            report.metrics["cache"]["hit_rate"]
        )

    def test_metrics_off_keeps_archives_byte_stable(self):
        with Session(executor="serial") as session:
            report = session.run("mlp")
        assert report.metrics == {}
        data = report.to_dict()
        assert "metrics" not in data
        assert RunReport.from_dict(data).metrics == {}

    def test_scheduler_counters_via_registry(self, multi_slot):
        # Satellite: the duck-typed scheduler_counters probing is gone;
        # backend_counters reads the metrics registry and keeps the
        # legacy dict shape.
        with Session(executor="multi-slot", max_workers=2) as session:
            plan = SweepPlan.matrix(session.config, models=["mlp", "lenet"])
            session.sweep(plan)
            counters = backend_counters(session.engine.backend)
            assert counters["chunks_pulled"] > 0
            registry = session.engine.backend.metrics
            assert registry.value("scheduler.chunks_pulled") == (
                counters["chunks_pulled"]
            )
            latency = registry.get("scheduler.chunk_latency_s")
            assert latency.count == counters["chunks_pulled"]


# ----------------------------------------------------------------------
# diff: informational metrics deltas
# ----------------------------------------------------------------------
class TestDiffMetrics:
    def _sweep(self, **overrides):
        with Session(executor="serial", metrics=True, **overrides) as s:
            return s.sweep(SweepPlan.matrix(s.config, models=["mlp"]))

    def test_metrics_deltas_are_informational(self):
        before = self._sweep()
        after = self._sweep()
        diff = diff_reports(
            SweepReport.from_json(before.to_json()),
            SweepReport.from_json(after.to_json()),
        )
        assert set(diff.observability) >= {
            "cache_hit_rate", "simulations_per_s", "wall_s",
        }
        # Identical measurements: wall-time differences must not
        # register as a regression or break the zero verdict.
        assert diff.max_regression == 0.0
        assert diff.is_zero
        assert "observability (informational)" in diff.summary()
        assert "observability" in diff.to_dict()

    def test_no_metrics_section_no_deltas(self):
        with Session(executor="serial") as s:
            before = s.sweep(SweepPlan.matrix(s.config, models=["mlp"]))
        after = self._sweep()
        diff = diff_reports(before, after)
        assert diff.observability == {}
        assert "observability" not in diff.to_dict()
