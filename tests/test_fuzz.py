"""Tests for the property-fuzzing harness (repro.fuzz)."""

import pytest

from repro.errors import ConfigError
from repro.fuzz import (
    SEED_MODELS,
    SHRINK_MODEL,
    CrossCheckResult,
    cross_check,
    fuzz_model_name,
    generate_plan,
    load_repro,
    scenario_digest,
    shrink,
    write_repro,
)
from repro.session import SessionConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.zoo import register_model, zoo_layers

BASE = SessionConfig.resolve(env=False, max_workers=2)
# Enough executors to diverge, no pool spin-up (``multi-slot`` is the
# test-local inline backend registered by the ``multi_slot`` fixture).
FAST = ("serial", "multi-slot")


@pytest.fixture(autouse=True)
def _multi_slot(multi_slot):
    yield


class TestGeneratePlan:
    def test_deterministic_in_the_seed(self):
        first = generate_plan(8, seed=3, base=BASE)
        second = generate_plan(8, seed=3, base=BASE)
        assert [s.name for s in first.scenarios] == [
            s.name for s in second.scenarios
        ]
        assert [s.overrides for s in first.scenarios] == [
            s.overrides for s in second.scenarios
        ]
        # Regenerated random models carry identical layer stacks.
        for scenario in first.scenarios[len(SEED_MODELS):]:
            assert zoo_layers(scenario.model) == zoo_layers(scenario.model)

    def test_different_seeds_differ(self):
        a = generate_plan(8, seed=3, base=BASE)
        b = generate_plan(8, seed=4, base=BASE)
        assert [s.overrides for s in a.scenarios] != [
            s.overrides for s in b.scenarios
        ]

    def test_first_scenarios_cover_the_curated_models(self):
        plan = generate_plan(len(SEED_MODELS), seed=1, base=BASE)
        assert [s.model for s in plan.scenarios] == list(SEED_MODELS)

    def test_architectures_rotate_round_robin(self):
        plan = generate_plan(8, seed=1, base=BASE)
        arches = [s.config.architecture.arch for s in plan.scenarios]
        assert set(arches[:4]) == {"maeri", "sigma", "magma", "tpu"}
        assert arches[:4] == arches[4:]

    def test_random_models_register_in_the_zoo(self):
        plan = generate_plan(7, seed=5, base=BASE)
        name = plan.scenarios[-1].model
        assert name == fuzz_model_name(5, 6)
        assert len(zoo_layers(name)) >= 1

    def test_maeri_scenarios_never_draw_raw_gemms(self):
        from repro.stonne.layer import GemmLayer

        plan = generate_plan(40, seed=2, base=BASE)
        for scenario in plan.scenarios:
            if scenario.config.architecture.arch != "maeri":
                continue
            assert not any(
                isinstance(layer, GemmLayer)
                for layer in zoo_layers(scenario.model)
            )

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigError, match="positive"):
            generate_plan(0, seed=1, base=BASE)


class TestCrossCheck:
    def test_clean_plan_is_bit_identical(self):
        plan = generate_plan(4, seed=9, base=BASE)
        result = cross_check(plan, base=BASE, executors=FAST)
        assert result.ok and not result.divergent
        assert set(result.digests) == {s.name for s in plan.scenarios}
        for per_exec in result.digests.values():
            assert len(set(per_exec.values())) == 1

    def test_plan_digest_reproduces(self):
        plan = generate_plan(4, seed=9, base=BASE)
        first = cross_check(plan, base=BASE, executors=FAST).plan_digest()
        second = cross_check(plan, base=BASE, executors=FAST).plan_digest()
        assert first == second

    def test_digest_is_sensitive_to_any_counter(self):
        stats = [{"layer_name": "l", "cycles": 10, "psums": 3}]
        tweaked = [{"layer_name": "l", "cycles": 10, "psums": 4}]
        assert scenario_digest(stats) != scenario_digest(tweaked)
        assert scenario_digest(stats) == scenario_digest(
            [dict(reversed(list(stats[0].items())))]
        )  # key order canonicalized

    def test_injected_divergence_is_caught(self):
        plan = generate_plan(2, seed=9, base=BASE)
        victim = plan.scenarios[0].name

        def inject(executor, name, stats_dicts):
            if executor == "multi-slot" and name == victim:
                stats_dicts = [dict(s) for s in stats_dicts]
                stats_dicts[0]["cycles"] += 1
            return stats_dicts

        result = cross_check(plan, base=BASE, executors=FAST, inject=inject)
        assert result.divergent == [victim]
        assert not result.ok

    def test_divergent_property_reads_per_executor_digests(self):
        result = CrossCheckResult(executors=("a", "b"))
        result.digests["x"] = {"a": "1", "b": "1"}
        result.digests["y"] = {"a": "1", "b": "2"}
        assert result.divergent == ["y"]


class TestShrink:
    def _scenario_with_layers(self, layers):
        register_model(
            "fuzz/test-victim",
            (lambda captured: (lambda: list(captured)))(layers),
            description="shrink test victim",
            tags=("fuzz",),
            replace=True,
        )
        from repro.sweep.plan import SweepPlan

        plan = SweepPlan.single(
            BASE, model="fuzz/test-victim", name="fuzz/test-victim"
        )
        return plan.scenarios[0]

    def test_shrinks_to_the_single_faulty_layer(self):
        layers = [
            FcLayer("keep.me", 8, 8),
            ConvLayer("faulty", C=2, H=6, W=6, K=2, R=3, S=3),
            FcLayer("drop.me", 16, 4),
        ]
        scenario = self._scenario_with_layers(layers)

        def inject(executor, name, stats_dicts):
            out = [dict(s) for s in stats_dicts]
            for stats in out:
                if executor == "multi-slot" and stats["layer_name"] == "faulty":
                    stats["cycles"] += 1
            return out

        minimal = shrink(scenario, FAST, inject=inject)
        assert [layer.name for layer in minimal] == ["faulty"]

    def test_non_reproducing_divergence_returns_everything(self):
        layers = [FcLayer("a", 8, 8), FcLayer("b", 4, 4)]
        scenario = self._scenario_with_layers(layers)
        minimal = shrink(scenario, FAST, inject=None)
        assert [layer.name for layer in minimal] == ["a", "b"]


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "repro.toml")
        layers = [
            ConvLayer("c", C=4, H=8, W=8, K=4, R=3, S=3, pad_h=1, pad_w=1,
                      dil_h=2, dil_w=2, layout="NHWC"),
            FcLayer("f", 16, 8, batch=2),
        ]
        config = BASE.with_overrides(arch="sigma", sparsity_ratio=0.5)
        write_repro(path, config, layers, seed=42, note="unit test")

        plan, loaded = load_repro(path)
        assert loaded.architecture.arch == "sigma"
        assert loaded.architecture.sparsity_ratio == 0.5
        assert plan.scenarios[0].model == SHRINK_MODEL
        reloaded = zoo_layers(SHRINK_MODEL)
        assert reloaded == layers  # dataclass equality, every field

    def test_reloaded_repro_cross_checks_clean(self, tmp_path):
        path = str(tmp_path / "repro.toml")
        write_repro(path, BASE, [FcLayer("f", 8, 8)])
        plan, config = load_repro(path)
        assert cross_check(plan, base=config, executors=FAST).ok

    def test_missing_fuzz_section_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(BASE.to_toml())
        with pytest.raises(ConfigError, match="fuzz.layer"):
            load_repro(str(path))

    def test_unknown_layer_kind_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            BASE.to_toml() + '\n[fuzz]\n\n[[fuzz.layer]]\nkind = "Mystery"\n'
        )
        with pytest.raises(ConfigError, match="Mystery"):
            load_repro(str(path))

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot load"):
            load_repro(str(tmp_path / "missing.toml"))
