"""Tests for executor backends, the persistent stats cache, batched
measurement, and GA determinism after vectorization."""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import (
    EvalRequest,
    EvaluationEngine,
    PersistentStatsCache,
    ProcessBackend,
    SerialBackend,
    StatsCache,
    make_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.errors import ConfigError
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping
from repro.stonne.stats import SimulationStats
from repro.tuner.measure import CallableTask, MaeriConvTask
from repro.tuner.space import ConfigSpace
from repro.tuner.tuners.ga import GATuner


def _requests():
    reqs = [
        EvalRequest(
            ConvLayer(f"c{i}", C=2 + i, H=8, W=8, K=4, R=3, S=3),
            ConvMapping(T_R=3),
        )
        for i in range(5)
    ]
    reqs.append(EvalRequest(FcLayer("f", in_features=32, out_features=16)))
    return reqs


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "process"} <= set(registered_backends())
        assert "thread" not in registered_backends()

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process"), ProcessBackend)
        assert make_backend("process", max_workers=3).max_workers == 3
        with pytest.raises(ConfigError, match="no executor backend"):
            make_backend("thread", max_workers=2)

    def test_make_backend_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_default_resolution_mirrors_history(self):
        """None -> serial, whatever the pool width."""
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(None, max_workers=1), SerialBackend)
        assert isinstance(make_backend(None, max_workers=4), SerialBackend)
        assert isinstance(make_backend("serial", max_workers=4), SerialBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="no executor backend"):
            make_backend("quantum")

    def test_custom_registration_roundtrip(self):
        @register_backend("test-inline")
        class InlineBackend(SerialBackend):
            pass

        try:
            assert "test-inline" in registered_backends()
            assert isinstance(make_backend("test-inline"), InlineBackend)
        finally:
            unregister_backend("test-inline")
        assert "test-inline" not in registered_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("serial")(ProcessBackend)

    def test_alias_registration_keeps_original_name(self):
        """Registering a built-in under a second name must not corrupt
        the name engines report through counters()."""
        register_backend("process-alias")(ProcessBackend)
        try:
            assert ProcessBackend.name == "process"
            assert isinstance(make_backend("process-alias"), ProcessBackend)
        finally:
            unregister_backend("process-alias")


class TestBackendParity:
    """Identical stats regardless of how the batch is executed."""

    def test_serial_process_multi_slot_agree(self, maeri128, multi_slot):
        reqs = _requests()
        serial = EvaluationEngine(maeri128, executor="serial").evaluate_many(reqs)
        slots_engine = EvaluationEngine(
            maeri128, executor=multi_slot(max_workers=4)
        )
        process_engine = EvaluationEngine(
            maeri128, executor="process", max_workers=2
        )
        try:
            assert slots_engine.evaluate_many(reqs) == serial
            assert process_engine.evaluate_many(reqs) == serial
        finally:
            slots_engine.close()
            process_engine.close()

    def test_process_backend_counts_simulations(self, maeri128):
        engine = EvaluationEngine(maeri128, executor="process", max_workers=2)
        try:
            reqs = _requests()
            engine.evaluate_many(reqs)
            assert engine.num_simulations == len(reqs)
            # A second pass is served entirely from the parent cache.
            engine.evaluate_many(reqs)
            assert engine.num_simulations == len(reqs)
            assert engine.cache.hits == len(reqs)
        finally:
            engine.close()

    def test_process_backend_gemm(self):
        engine = EvaluationEngine(
            sigma_config(), executor="process", max_workers=2
        )
        try:
            serial = EvaluationEngine(sigma_config())
            layers = [GemmLayer(f"g{i}", M=4 + i, K=16, N=4) for i in range(4)]
            assert engine.evaluate_many(layers) == serial.evaluate_many(layers)
        finally:
            engine.close()

    def test_process_backend_survives_a_killed_pool_process(self):
        engine = EvaluationEngine(
            sigma_config(), executor="process", max_workers=2
        )
        serial = EvaluationEngine(sigma_config())
        try:
            first = [FcLayer(f"a{i}", 8 + i, 8) for i in range(4)]
            assert engine.evaluate_many(first) == serial.evaluate_many(first)
            pool = engine.backend._pool
            os.kill(pool.submit(os.getpid).result(timeout=30), signal.SIGKILL)
            # Wait until the pool itself reports the death, so the next
            # call is sure to meet a broken pool.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    pool.submit(os.getpid).result(timeout=30)
                except BrokenProcessPool:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("the pool never noticed its killed process")
            # Each call simulates fresh layers, so neither is a cache hit.
            for batch in ("b", "c"):
                layers = [FcLayer(f"{batch}{i}", 16 + i, 8) for i in range(4)]
                assert engine.evaluate_many(layers) == (
                    serial.evaluate_many(layers)
                )
            assert engine.backend._pool is not pool
        finally:
            engine.close()

    def test_batch_duplicates_simulate_once(self, maeri128):
        engine = EvaluationEngine(maeri128)
        layer = FcLayer("dup", in_features=32, out_features=16)
        results = engine.evaluate_many([layer, layer, layer])
        assert engine.num_simulations == 1
        assert results[0] == results[1] == results[2]

    def test_duplicates_survive_immediate_eviction(self, maeri128):
        """A cache bound smaller than the batch's distinct misses must not
        break duplicate resolution (the key may already be evicted)."""
        engine = EvaluationEngine(maeri128, cache=StatsCache(max_entries=1))
        a = FcLayer("a", in_features=16, out_features=8)
        b = FcLayer("b", in_features=24, out_features=8)
        results = engine.evaluate_many([a, b, a])
        assert results[0] == results[2]
        assert results[0].layer_name == "a"
        assert engine.num_simulations == 2

    def test_per_item_errors_do_not_poison_batch(self, maeri128):
        from repro.errors import MappingError

        engine = EvaluationEngine(maeri128)
        good = ConvLayer("good", C=2, H=8, W=8, K=4, R=3, S=3)
        bad_mapping = ConvMapping(T_R=128, T_S=128)  # cannot fit 128 PEs
        outcomes = engine.evaluate_many(
            [
                EvalRequest(good, ConvMapping(T_R=3)),
                EvalRequest(good, bad_mapping),
            ],
            return_errors=True,
        )
        assert isinstance(outcomes[0], SimulationStats)
        assert isinstance(outcomes[1], MappingError)

    def test_errors_raise_by_default(self, maeri128):
        from repro.errors import MappingError

        engine = EvaluationEngine(maeri128)
        good = ConvLayer("good", C=2, H=8, W=8, K=4, R=3, S=3)
        with pytest.raises(MappingError):
            engine.evaluate_many(
                [EvalRequest(good, ConvMapping(T_R=128, T_S=128))]
            )


class TestPersistentCache:
    def test_round_trip(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        engine = EvaluationEngine(maeri128, cache=PersistentStatsCache(path))
        layer = ConvLayer("c", C=4, H=10, W=10, K=8, R=3, S=3)
        first = engine.evaluate(layer, ConvMapping(T_R=3, T_S=3))
        engine.cache.close()

        reopened = PersistentStatsCache(path)
        assert reopened.warm_entries == 1
        second = EvaluationEngine(maeri128, cache=reopened).evaluate(
            layer, ConvMapping(T_R=3, T_S=3)
        )
        assert second == first
        assert reopened.hits == 1 and reopened.misses == 0

    def test_warm_resume_across_engine_instances(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        reqs = _requests()
        cold_cache = PersistentStatsCache(path)
        cold = EvaluationEngine(maeri128, cache=cold_cache)
        cold_results = cold.evaluate_many(reqs)
        assert cold.num_simulations == len(reqs)
        cold_cache.close()

        warm_cache = PersistentStatsCache(path)
        warm = EvaluationEngine(maeri128, cache=warm_cache)
        warm_results = warm.evaluate_many(reqs)
        assert warm.num_simulations == 0
        assert warm_cache.hit_rate == 1.0
        assert warm_results == cold_results

    def test_no_duplicate_lines_on_reput(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        layer = FcLayer("f", in_features=16, out_features=8)
        cache = PersistentStatsCache(path)
        EvaluationEngine(maeri128, cache=cache).evaluate(layer)
        cache.close()
        cache2 = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache2, cache_enabled=False)
        stats = engine.evaluate(layer)
        from repro.engine import evaluation_key

        cache2.put(
            evaluation_key(engine.fingerprint, layer, None), stats
        )  # same key again
        cache2.close()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1

    def test_corrupt_tail_line_skipped(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache)
        engine.evaluate(FcLayer("f", in_features=16, out_features=8))
        engine.evaluate(FcLayer("g", in_features=24, out_features=8))
        cache.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": ["trunc')  # simulated crash mid-append

        reopened = PersistentStatsCache(path)
        assert reopened.warm_entries == 2

    def test_foreign_scalars_round_trip_exactly(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        key = ("fp", "ConvLayer", (1, 2, None), "ConvMapping", (3, 4))
        stats = SimulationStats(
            layer_name="x", controller="MAERI", cycles=10, psums=5,
            macs=20, iterations=1, multipliers_used=4, array_size=8,
        )
        cache.put(key, stats)
        cache.close()
        reopened = PersistentStatsCache(path)
        assert reopened.get(key) == stats

    def test_clear_truncates_spill(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        EvaluationEngine(maeri128, cache=cache).evaluate(
            FcLayer("f", in_features=16, out_features=8)
        )
        cache.clear()
        cache.close()
        assert PersistentStatsCache(path).warm_entries == 0

    def test_memory_bound_respected_on_load(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache)
        for i in range(5):
            engine.evaluate(FcLayer(f"f{i}", in_features=8 + i, out_features=4))
        cache.close()
        bounded = PersistentStatsCache(path, max_entries=2)
        assert bounded.warm_entries == 2
        assert len(bounded) == 2


class TestBatchedMeasurement:
    def test_measure_batch_matches_measure(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        serial_task = MaeriConvTask(layer, maeri128, objective="cycles")
        batched_task = MaeriConvTask(layer, maeri128, objective="cycles")
        indices = list(range(24))
        singles = [
            serial_task.measure(serial_task.space.config_at(i)) for i in indices
        ]
        batched = batched_task.measure_batch(indices)
        assert [r.cost for r in batched] == [r.cost for r in singles]
        assert batched_task.num_measurements == len(indices)

    def test_cost_memo_skips_revisits(self):
        calls = []
        space = ConfigSpace()
        space.define_knob("x", [1, 2, 3, 4])

        def fn(config):
            calls.append(config["x"])
            return float(config["x"])

        task = CallableTask(space, fn)
        first = task.measure_batch([0, 1, 2])
        again = task.measure_batch([0, 1, 2])
        assert [r.cost for r in first] == [r.cost for r in again]
        assert calls == [1, 2, 3]  # revisits never re-evaluate
        assert task.num_measurements == 6  # but are still counted

    def test_memo_covers_invalid_configs(self):
        validity_checks = []
        space = ConfigSpace()
        space.define_knob("x", [1, 2, 3, 4])

        def constraint(config):
            validity_checks.append(config["x"])
            return config["x"] != 2

        space.add_constraint(constraint)
        task = CallableTask(space, lambda c: float(c["x"]))
        task.measure_batch([1, 1, 1])
        from repro.tuner.measure import INVALID_COST

        assert task.measure_batch([1])[0].cost == INVALID_COST
        assert validity_checks.count(2) == 1  # validated exactly once

    def test_tuning_through_process_backend_matches_serial(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        serial = GATuner(
            MaeriConvTask(layer, maeri128, objective="cycles"), seed=7
        ).tune(n_trials=48)
        engine = EvaluationEngine(maeri128, executor="process", max_workers=2)
        try:
            process = GATuner(
                MaeriConvTask(
                    layer, maeri128, objective="cycles", engine=engine
                ),
                seed=7,
            ).tune(n_trials=48)
        finally:
            engine.close()
        assert process.best_cost == serial.best_cost
        assert [t.cost for t in process.records.trials] == [
            t.cost for t in serial.records.trials
        ]


class TestGADeterminism:
    def _task(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        return MaeriConvTask(layer, maeri128, objective="psums")

    def test_identical_runs_per_seed(self, maeri128):
        runs = [
            GATuner(self._task(maeri128), seed=11).tune(n_trials=96)
            for _ in range(2)
        ]
        assert runs[0].best_cost == runs[1].best_cost
        assert [t.index for t in runs[0].records.trials] == [
            t.index for t in runs[1].records.trials
        ]

    def test_seeds_differ(self, maeri128):
        a = GATuner(self._task(maeri128), seed=1).tune(n_trials=64)
        b = GATuner(self._task(maeri128), seed=2).tune(n_trials=64)
        assert [t.index for t in a.records.trials] != [
            t.index for t in b.records.trials
        ]


class TestEngineRoutedApi:
    def test_repeated_conv_shapes_skip_cycle_model(self, maeri128, rng):
        from repro.session import Session

        data = rng.normal(size=(1, 4, 10, 10))
        weights = rng.normal(size=(8, 4, 3, 3))
        with Session(simulator_config=maeri128) as s:
            out1 = s.api.conv2d_nchw(data, weights)
            out2 = s.api.conv2d_nchw(data, weights)
            assert s.engine.num_simulations == 1  # second call cached
        stats = s.api.stats
        assert len(stats) == 2
        assert stats[0].layer_name == "conv2d"
        assert stats[1].layer_name == "conv2d#1"
        assert stats[0].cycles == stats[1].cycles
        # The functional datapath executed both times.
        assert out1 == pytest.approx(out2)

    def test_repeated_dense_shapes_skip_cycle_model(self, maeri128, rng):
        from repro.session import Session

        data = rng.normal(size=(1, 32))
        weights = rng.normal(size=(16, 32))
        with Session(simulator_config=maeri128) as s:
            out1 = s.api.dense(data, weights)
            s.api.dense(data, weights)
            assert s.engine.num_simulations == 1
        assert out1 == pytest.approx(data @ weights.T)

    def test_session_cache_path_persists(self, tmp_path, maeri128, rng):
        from repro.session import Session

        path = tmp_path / "session.jsonl"
        data = rng.normal(size=(1, 4, 10, 10))
        weights = rng.normal(size=(8, 4, 3, 3))

        with Session(simulator_config=maeri128, cache_path=str(path)) as cold:
            cold.api.conv2d_nchw(data, weights)
            assert cold.engine.num_simulations == 1

        with Session(simulator_config=maeri128, cache_path=str(path)) as warm:
            warm.api.conv2d_nchw(data, weights)
            assert warm.engine.num_simulations == 0
            assert warm.engine.cache.hit_rate == 1.0


class TestCliEngineFlags:
    def test_run_with_executor_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        argv = ["run", "lenet", "--executor", "process", "--max-workers", "2",
                "--cache-path", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "stats cache:" in first
        assert path.exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(100.0%)" in second  # warm rerun fully cached

    def test_tune_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tune.jsonl"
        argv = ["tune", "lenet", "fc3", "--tuner", "random", "--trials", "20",
                "--objective", "cycles", "--cache-path", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(100.0%)" in out
