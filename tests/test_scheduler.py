"""Pull scheduler tests.

Two layers of guarantees:

* queue-level tests pin that every chunk runs exactly once, whichever
  puller takes it, and that chunks interleave across engine groups;
* :func:`~repro.engine.scheduler.run_plan_groups` integration tests
  prove the pull path bit-identical to the cycle models on the serial
  and process backends and on a multi-slot inline backend (the
  ``multi_slot`` fixture), including under an injected slow slot and
  groups spread over several backends.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

import repro.engine.backends as backends_mod
from repro.engine import EvalRequest, EvaluationEngine, evaluation_key
from repro.engine.backends import SerialBackend
from repro.engine.scheduler import (
    Chunk,
    _auto_chunk_size,
    _interleave,
    backend_counters,
    run_plan_groups,
    zero_counters,
)
from repro.errors import SimulationError
from repro.stonne.config import sigma_config
from repro.stonne.controller import make_controller
from repro.stonne.layer import FcLayer


def _chunk(start, items, group=0):
    return Chunk(engine=None, group=group, start=start, items=items)


def _layers(count, width=8):
    """``count`` distinct FC layers (distinct shapes -> distinct keys)."""
    return [
        FcLayer(f"fc{i}", in_features=width + i, out_features=width)
        for i in range(count)
    ]


class TestWorkQueue:
    def test_every_chunk_runs_exactly_once(self, multi_slot):
        # More pullers than cores and a short switch interval: a chunk
        # popped twice (or lost) would show up in the per-item counts.
        layers = _layers(60)
        config = sigma_config()
        expected = [
            s.to_dict()
            for s in EvaluationEngine(config).evaluate_many(layers)
        ]
        runs = Counter()
        lock = threading.Lock()

        class CountingBackend(multi_slot):
            def run_chunk(self, engine, items, slot=None):
                with lock:
                    runs.update(request.layer.name for _key, request in items)
                return super().run_chunk(engine, items, slot)

        engine = EvaluationEngine(
            config, executor=CountingBackend(max_workers=8)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            plan = engine.plan_many([EvalRequest(l) for l in layers])
            report = run_plan_groups([(engine, [plan])])
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert runs == Counter(layer.name for layer in layers)
        assert [s.to_dict() for s in plan.results] == expected
        assert report["chunks_pulled"] == 30  # 2 items per chunk on 8 slots

    def test_zero_counters_shape(self):
        assert zero_counters() == {"chunks_pulled": 0}


class TestChunking:
    def test_auto_chunk_size_targets_chunks_per_slot(self):
        assert _auto_chunk_size(12, 4) == 1     # fewer items than target
        assert _auto_chunk_size(256, 2) == 32   # 256 / (2*4) = 32
        assert _auto_chunk_size(10_000, 2) == 32  # capped
        assert _auto_chunk_size(1, 8) == 1

    def test_interleave_round_robins_groups(self):
        a = [_chunk(i, [(f"a{i}", None)]) for i in range(3)]
        b = [_chunk(0, [("b0", None)], group=1)]
        assert _interleave([a, b]) == [a[0], b[0], a[1], a[2]]


class TestRunPlanGroups:
    def _serial_reference(self, config, layers):
        engine = EvaluationEngine(config)
        stats = engine.evaluate_many([EvalRequest(l) for l in layers])
        return [s.to_dict() for s in stats]

    def test_thread_pull_bit_identical_to_serial(self, multi_slot):
        # Four puller threads (the calling thread plus three) drain one
        # multi-slot backend's queue.
        layers = _layers(10)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        engine = EvaluationEngine(config, executor=multi_slot(max_workers=4))
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])])
        assert [s.to_dict() for s in plan.results] == expected
        # 10 distinct items, auto chunk size 1 -> 10 pulls.
        assert report["chunks_pulled"] == 10
        assert engine.num_simulations == 10
        # The backend accumulated this run's counters.
        assert backend_counters(engine.backend)["chunks_pulled"] == 10

    def test_process_pull_bit_identical_to_serial(self):
        layers = _layers(6)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        engine = EvaluationEngine(config, executor="process", max_workers=2)
        try:
            plan = engine.plan_many([EvalRequest(l) for l in layers])
            report = run_plan_groups([(engine, [plan])])
            assert [s.to_dict() for s in plan.results] == expected
        finally:
            engine.backend.close()

    def test_engine_groups_share_one_queue(self, multi_slot):
        backend = multi_slot(max_workers=4)
        config_a = sigma_config()
        config_b = sigma_config(ms_size=64)
        layers_a = _layers(5)
        layers_b = _layers(4, width=16)
        expected_a = self._serial_reference(config_a, layers_a)
        expected_b = self._serial_reference(config_b, layers_b)
        try:
            engine_a = EvaluationEngine(config_a, executor=backend)
            engine_b = EvaluationEngine(config_b, executor=backend)
            plan_a = engine_a.plan_many([EvalRequest(l) for l in layers_a])
            plan_b = engine_b.plan_many([EvalRequest(l) for l in layers_b])
            report = run_plan_groups(
                [(engine_a, [plan_a]), (engine_b, [plan_b])]
            )
            assert [s.to_dict() for s in plan_a.results] == expected_a
            assert [s.to_dict() for s in plan_b.results] == expected_b
            assert report["chunks_pulled"] == 9
        finally:
            backend.close()

    def test_foreign_plan_rejected(self):
        engine_a = EvaluationEngine(sigma_config())
        engine_b = EvaluationEngine(sigma_config())
        plan = engine_a.plan_many([EvalRequest(_layers(1)[0])])
        with pytest.raises(SimulationError):
            run_plan_groups([(engine_b, [plan])])

    @pytest.mark.parametrize(
        "executor,max_workers",
        [("serial", None), (None, 4), ("process", 1)],
    )
    def test_serial_drains_on_the_calling_thread(
        self, monkeypatch, executor, max_workers
    ):
        # A one-slot backend is drained by the caller: no puller thread,
        # the caller's own controller, and the whole group as one chunk.
        real = backends_mod.simulate_chunk
        calls = []

        def recording(controller, pairs, functional):
            calls.append((
                threading.current_thread(),
                len(pairs),
                [t.name for t in threading.enumerate()
                 if t.name.startswith("repro-puller-")],
            ))
            return real(controller, pairs, functional)

        monkeypatch.setattr(backends_mod, "simulate_chunk", recording)
        layers = _layers(4)
        config = sigma_config()
        # The reference bypasses the engine and scheduler entirely.
        reference = make_controller(config)
        expected = [reference.run_fc(l, None).to_dict() for l in layers]
        engine = EvaluationEngine(
            config, executor=executor, max_workers=max_workers
        )
        try:
            plan = engine.plan_many([EvalRequest(l) for l in layers])
            report = run_plan_groups([(engine, [plan])])
        finally:
            engine.close()
        assert calls == [(threading.current_thread(), 4, [])]
        assert report["chunks_pulled"] == 1
        assert [s.to_dict() for s in plan.results] == expected
        assert engine.num_simulations == 4

    def test_groups_on_distinct_backends_resolve_bit_identically(
        self, multi_slot
    ):
        config_a = sigma_config()
        config_b = sigma_config(ms_size=64)
        layers_a = _layers(5)
        layers_b = _layers(4, width=16)
        expected_a = self._serial_reference(config_a, layers_a)
        expected_b = self._serial_reference(config_b, layers_b)
        serial = SerialBackend()
        slots = multi_slot(max_workers=2)
        engine_a = EvaluationEngine(config_a, executor=serial)
        engine_b = EvaluationEngine(config_b, executor=slots)
        engine_c = EvaluationEngine(config_b, executor=serial)
        plan_a = engine_a.plan_many([EvalRequest(l) for l in layers_a])
        plan_b = engine_b.plan_many([EvalRequest(l) for l in layers_b])
        plan_c = engine_c.plan_many([EvalRequest(l) for l in layers_b])
        report = run_plan_groups([
            (engine_a, [plan_a]), (engine_b, [plan_b]), (engine_c, [plan_c]),
        ])
        assert [s.to_dict() for s in plan_a.results] == expected_a
        assert [s.to_dict() for s in plan_b.results] == expected_b
        assert [s.to_dict() for s in plan_c.results] == expected_b
        # The serial backend drained both of its groups as one chunk
        # each; the two-slot backend chunked its group per item.
        assert backend_counters(serial)["chunks_pulled"] == 2
        assert backend_counters(slots)["chunks_pulled"] == 4
        assert report["chunks_pulled"] == 6

    def test_slow_worker_gets_its_tail_stolen(self, monkeypatch, multi_slot):
        real = backends_mod.simulate_layer
        ran_on = {}

        def slow_fc0(controller, layer, mapping, functional):
            ran_on[layer.name] = threading.current_thread()
            if layer.name == "fc0":
                time.sleep(0.3)
            return real(controller, layer, mapping, functional)

        layers = _layers(8)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        monkeypatch.setattr(backends_mod, "simulate_layer", slow_fc0)
        engine = EvaluationEngine(config, executor=multi_slot(max_workers=2))
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        run_plan_groups([(engine, [plan])])
        # While one slot holds fc0 for 0.3 s the other drains the rest
        # of the queue.
        slow = ran_on["fc0"]
        others = [name for name, ran in ran_on.items() if ran is not slow]
        assert len(others) >= 6
        assert [s.to_dict() for s in plan.results] == expected
        assert engine.num_simulations == 8

    def test_error_isolation_matches_run_plans(self, monkeypatch, multi_slot):
        real = backends_mod.simulate_layer

        def failing_fc3(controller, layer, mapping, functional):
            if layer.name == "fc3":
                raise ValueError("injected failure")
            return real(controller, layer, mapping, functional)

        layers = _layers(6)
        monkeypatch.setattr(backends_mod, "simulate_layer", failing_fc3)
        engine = EvaluationEngine(
            sigma_config(), executor=multi_slot(max_workers=2)
        )
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])], return_errors=True)
        assert isinstance(plan.results[3], ValueError)
        assert all(
            not isinstance(result, Exception)
            for i, result in enumerate(plan.results) if i != 3
        )
        # Without return_errors the first error propagates.
        engine_b = EvaluationEngine(
            sigma_config(), executor=multi_slot(max_workers=2)
        )
        plan_b = engine_b.plan_many([EvalRequest(l) for l in layers])
        with pytest.raises(ValueError, match="injected failure"):
            run_plan_groups([(engine_b, [plan_b])])


class _DuckCache:
    """A minimal cache that returns its *stored* records (no copies) —
    the sharing-hostile shape the engine must tolerate."""

    def __init__(self) -> None:
        self.store = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        record = self.store.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key, stats) -> None:
        self.store[key] = stats

    def __contains__(self, key) -> bool:
        return key in self.store


class TestPlanManyAliasing:
    def test_plan_hit_never_renames_the_stored_record(self):
        cache = _DuckCache()
        engine = EvaluationEngine(sigma_config(), cache=cache)
        first = FcLayer("first", in_features=16, out_features=8)
        engine.evaluate(first)
        key = evaluation_key(engine.fingerprint, first, None)
        assert cache.store[key].layer_name == "first"
        # A cache hit under another name must be attributed on a copy,
        # not by renaming the cache's own record in place.
        renamed = FcLayer("renamed", in_features=16, out_features=8)
        plan = engine.plan_many([EvalRequest(renamed)])
        assert plan.num_pending == 0
        assert plan.results[0].layer_name == "renamed"
        assert cache.store[key].layer_name == "first"

    def test_evaluate_hit_never_renames_the_stored_record(self):
        cache = _DuckCache()
        engine = EvaluationEngine(sigma_config(), cache=cache)
        first = FcLayer("first", in_features=16, out_features=8)
        engine.evaluate(first)
        key = evaluation_key(engine.fingerprint, first, None)
        hit = engine.evaluate(FcLayer("renamed", in_features=16, out_features=8))
        assert hit.layer_name == "renamed"
        assert cache.store[key].layer_name == "first"
