"""Tests for repro.engine: cache correctness, batching, tuner integration."""

import pytest

from repro.engine import EvalRequest, EvaluationEngine, StatsCache, evaluation_key
from repro.errors import SimulationError
from repro.stonne.config import maeri_config, sigma_config, tpu_config
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams
from repro.stonne.simulator import Stonne
from repro.tuner.measure import MaeriConvTask
from repro.tuner.tuners.ga import GATuner


@pytest.fixture
def conv():
    return ConvLayer("c", C=4, H=10, W=10, K=8, R=3, S=3, pad_h=1, pad_w=1)


@pytest.fixture
def fc():
    return FcLayer("f", in_features=64, out_features=32)


class TestCacheCorrectness:
    def test_hit_returns_identical_contents(self, maeri128, conv):
        engine = EvaluationEngine(maeri128)
        mapping = ConvMapping(T_R=3, T_S=3)
        first = engine.evaluate(conv, mapping)
        second = engine.evaluate(conv, mapping)
        assert first == second
        assert engine.cache.hits == 1 and engine.cache.misses == 1
        assert engine.num_simulations == 1 and engine.num_evaluations == 2

    def test_results_match_uncached_facade(self, maeri128, conv):
        engine = EvaluationEngine(maeri128)
        mapping = ConvMapping(T_R=3, T_S=3)
        engine.evaluate(conv, mapping)  # prime
        cached = engine.evaluate(conv, mapping)  # hit
        assert cached == Stonne(maeri128).run_conv2d(conv, mapping=mapping).stats

    def test_hit_is_mutation_isolated(self, maeri128, conv):
        engine = EvaluationEngine(maeri128)
        first = engine.evaluate(conv)
        first.cycles = -1  # corrupt the caller's copy
        second = engine.evaluate(conv)
        assert second.cycles > 0

    def test_hit_rewrites_layer_name(self, maeri128):
        """Structurally identical layers share entries but keep their names."""
        engine = EvaluationEngine(maeri128)
        a = ConvLayer("conv_a", C=4, H=8, W=8, K=8, R=3, S=3)
        b = ConvLayer("conv_b", C=4, H=8, W=8, K=8, R=3, S=3)
        engine.evaluate(a)
        stats_b = engine.evaluate(b)
        assert engine.cache.hits == 1
        assert stats_b.layer_name == "conv_b"

    def test_distinct_mappings_never_collide(self, maeri128, conv):
        engine = EvaluationEngine(maeri128)
        s1 = engine.evaluate(conv, ConvMapping(T_R=3, T_S=3))
        s2 = engine.evaluate(conv, ConvMapping(T_K=4))
        assert engine.cache.misses == 2 and engine.cache.hits == 0
        assert s1.psums != s2.psums

    def test_distinct_params_never_collide(self, maeri128, conv):
        """Engines with different calibration share a cache without mixing."""
        shared = StatsCache()
        fast = EvaluationEngine(maeri128, cache=shared)
        slow = EvaluationEngine(
            maeri128, params=CycleModelParams(config_cycles=1000), cache=shared
        )
        c_fast = fast.evaluate(conv).cycles
        c_slow = slow.evaluate(conv).cycles
        assert shared.misses == 2 and shared.hits == 0
        assert c_slow > c_fast

    def test_distinct_configs_never_collide(self, conv):
        shared = StatsCache()
        a = EvaluationEngine(maeri_config(), cache=shared)
        b = EvaluationEngine(maeri_config(ms_size=64), cache=shared)
        a.evaluate(conv)
        b.evaluate(conv)
        assert shared.misses == 2 and shared.hits == 0

    def test_conv_fc_gemm_all_cacheable(self, conv, fc):
        engine = EvaluationEngine(sigma_config())
        for layer in (conv, fc, GemmLayer("g", M=8, K=32, N=4)):
            first = engine.evaluate(layer)
            assert engine.evaluate(layer) == first
        assert engine.cache.hits == 3 and engine.cache.misses == 3

    def test_rejects_unknown_workload(self, maeri128):
        engine = EvaluationEngine(maeri128)
        with pytest.raises(SimulationError, match="ConvLayer/FcLayer/GemmLayer"):
            engine.evaluate("not a layer")


class TestCacheBounds:
    def test_lru_eviction(self, maeri128):
        engine = EvaluationEngine(maeri128, cache=StatsCache(max_entries=2))
        layers = [
            FcLayer(f"f{i}", in_features=8 + i, out_features=4) for i in range(3)
        ]
        for layer in layers:
            engine.evaluate(layer)
        assert len(engine.cache) == 2
        engine.evaluate(layers[0])  # evicted -> simulated again
        assert engine.cache.hits == 0 and engine.cache.misses == 4

    def test_disabled_cache_always_simulates(self, maeri128, conv):
        engine = EvaluationEngine(maeri128, cache_enabled=False)
        engine.evaluate(conv)
        engine.evaluate(conv)
        assert engine.num_simulations == 2
        assert len(engine.cache) == 0

    def test_clear_resets(self, maeri128, conv):
        engine = EvaluationEngine(maeri128)
        engine.evaluate(conv)
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.counters() == (0, 0)


class TestBatchEvaluation:
    def test_parallel_matches_sequential(self, maeri128):
        requests = [
            EvalRequest(
                ConvLayer(f"c{i}", C=2 + i, H=8, W=8, K=4, R=3, S=3),
                ConvMapping(T_R=3),
            )
            for i in range(6)
        ] + [EvalRequest(FcLayer("f", in_features=32, out_features=16))]
        sequential = EvaluationEngine(maeri128).evaluate_many(requests)
        engine = EvaluationEngine(maeri128, max_workers=4)
        try:
            parallel = engine.evaluate_many(requests)
            assert engine.backend.name == "thread"
        finally:
            engine.close()
        assert sequential == parallel
        assert [s.layer_name for s in parallel] == [
            r.layer.name for r in requests
        ]

    def test_accepts_bare_layers(self, maeri128, fc):
        engine = EvaluationEngine(tpu_config())
        stats = engine.evaluate_many([fc, fc])
        assert stats[0] == stats[1]
        assert engine.cache.hits == 1

    def test_empty_batch(self, maeri128):
        assert EvaluationEngine(maeri128).evaluate_many([]) == []


class TestFunctionalMode:
    def test_stats_identical_with_and_without_datapath(self, maeri128, conv, fc):
        mapping = ConvMapping(T_R=3, T_S=3)
        plain = EvaluationEngine(maeri128, cache_enabled=False)
        functional = EvaluationEngine(
            maeri128, cache_enabled=False, functional=True
        )
        assert plain.evaluate(conv, mapping) == functional.evaluate(conv, mapping)
        assert plain.evaluate(fc) == functional.evaluate(fc)

    def test_functional_gemm(self):
        engine = EvaluationEngine(sigma_config(), functional=True)
        assert engine.evaluate(GemmLayer("g", M=8, K=16, N=4)).cycles > 0


class TestCacheAwareTuning:
    def test_retuning_identical_shape_skips_all_simulations(self, maeri128):
        layer_a = ConvLayer("a", C=8, H=12, W=12, K=8, R=3, S=3)
        layer_b = ConvLayer("b", C=8, H=12, W=12, K=8, R=3, S=3)
        engine = EvaluationEngine(maeri128)

        task_a = MaeriConvTask(layer_a, maeri128, objective="cycles", engine=engine)
        best_a = GATuner(task_a, seed=3).tune(n_trials=120).best_cost
        assert task_a.num_simulations > 0

        task_b = MaeriConvTask(layer_b, maeri128, objective="cycles", engine=engine)
        best_b = GATuner(task_b, seed=3).tune(n_trials=120).best_cost
        assert best_b == best_a
        assert task_b.num_measurements > 0
        assert task_b.num_simulations == 0  # everything served from cache

    def test_psums_objective_reports_zero_simulations(self, maeri128):
        layer = ConvLayer("p", C=8, H=12, W=12, K=8, R=3, S=3)
        task = MaeriConvTask(layer, maeri128, objective="psums")
        GATuner(task, seed=0).tune(n_trials=60)
        assert task.num_measurements == 60
        assert task.num_simulations == 0  # closed-form proxy, no cycle model

    def test_task_without_engine_counts_locally(self, maeri128):
        from repro.tuner.measure import CallableTask
        from repro.tuner.space import ConfigSpace

        space = ConfigSpace()
        space.define_knob("x", [1, 2, 3, 4])
        task = CallableTask(space, lambda cfg: float(cfg["x"]))
        for i in range(4):
            task.measure(space.config_at(i))
        assert task.num_simulations == 4
