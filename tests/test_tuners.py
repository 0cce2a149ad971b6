"""Tests for the tuners: grid, random, GA, GBT-surrogate; records."""

import pytest

from repro.errors import TuningError
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.tuner import (
    CallableTask,
    ConfigSpace,
    GATuner,
    GridSearchTuner,
    INVALID_COST,
    MaeriConvTask,
    MaeriFcTask,
    RandomTuner,
    TuningRecords,
    XGBTuner,
)


def quadratic_space():
    """A 2-D space with known optimum at (a=7, b=5)."""
    space = ConfigSpace()
    space.define_knob("a", list(range(16)))
    space.define_knob("b", list(range(16)))

    def cost(config):
        return (config["a"] - 7) ** 2 + (config["b"] - 5) ** 2

    return CallableTask(space, cost)


class TestGridSearch:
    def test_finds_global_optimum(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=256)
        assert result.best_cost == 0
        assert result.best_config == {"a": 7, "b": 5}
        assert result.num_trials == 256

    def test_respects_constraints(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2, 3, 4])
        space.add_constraint(lambda c: c["a"] != 2)
        task = CallableTask(space, lambda c: c["a"])
        result = GridSearchTuner(task).tune(n_trials=10)
        visited = {t.config["a"] for t in result.records.trials}
        assert 2 not in visited
        assert result.best_config == {"a": 1}

    def test_stops_when_space_exhausted(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=10_000)
        assert result.num_trials == 256


class TestRandomTuner:
    def test_never_repeats_configs(self):
        task = quadratic_space()
        result = RandomTuner(task, seed=3).tune(n_trials=200)
        indices = [t.index for t in result.records.trials]
        assert len(indices) == len(set(indices))

    def test_deterministic_given_seed(self):
        costs1 = RandomTuner(quadratic_space(), seed=5).tune(50).best_cost
        costs2 = RandomTuner(quadratic_space(), seed=5).tune(50).best_cost
        assert costs1 == costs2

    def test_covers_space_eventually(self):
        result = RandomTuner(quadratic_space(), seed=1).tune(n_trials=256)
        assert result.best_cost == 0


class TestGATuner:
    def test_converges_near_optimum(self):
        result = GATuner(quadratic_space(), seed=2).tune(n_trials=150)
        assert result.best_cost <= 2

    def test_survives_invalid_regions(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(32)))
        space.add_constraint(lambda c: c["a"] % 3 == 0)
        task = CallableTask(space, lambda c: abs(c["a"] - 12))
        result = GATuner(task, seed=0).tune(n_trials=40)
        assert result.best_config is not None
        assert result.best_config["a"] % 3 == 0


class TestXGBTuner:
    def test_beats_random_sample_efficiency(self):
        """With the same tiny budget the surrogate should do no worse."""
        budget = 60
        xgb_cost = XGBTuner(quadratic_space(), seed=4, warmup=20).tune(budget).best_cost
        random_cost = RandomTuner(quadratic_space(), seed=4).tune(budget).best_cost
        assert xgb_cost <= random_cost + 4  # allow slack, must be competitive

    def test_invalid_costs_not_trained_on(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(8)))
        space.add_constraint(lambda c: c["a"] < 6)
        task = CallableTask(space, lambda c: c["a"])
        result = XGBTuner(task, seed=0, warmup=4).tune(n_trials=8)
        assert result.best_config == {"a": 0}


class TestEarlyStopping:
    def test_stops_after_patience(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=256, early_stopping=12)
        assert result.stopped_early
        assert result.num_trials < 256

    def test_patience_waits_for_the_first_valid_config(self):
        # Grid order visits a=0,1,2,...; the first 150 configs are
        # invalid.  Patience (120) must only start counting once a valid
        # config has been found, then stop 120 trials after it.
        space = ConfigSpace()
        space.define_knob("a", list(range(400)))
        task = CallableTask(
            space, lambda c: INVALID_COST if c["a"] < 150 else c["a"]
        )
        result = GridSearchTuner(task).tune(n_trials=400, early_stopping=120)
        assert result.best_config == {"a": 150}
        assert result.best_cost == 150
        assert result.stopped_early
        assert result.num_trials == 151 + 120

    def test_tuned_alexnet_seed1_finds_a_mapping_for_every_layer(self):
        # At this seed XGB's first 120 trials on conv2 are all invalid;
        # before patience waited for a valid config the sweep raised
        # TuningError("tuning found no valid mapping for layer 'conv2'").
        from repro.session import Session
        from repro.sweep import SweepPlan

        with Session(
            arch="maeri", mapping="tuned", objective="psums", seed=1
        ) as session:
            report = session.sweep(
                SweepPlan.matrix(session.config, ["alexnet"])
            )
        stats = {s.layer_name: s for s in report.scenarios[0].report.layer_stats}
        assert list(stats) == [
            "conv1", "conv2", "conv3", "conv4", "conv5", "fc1", "fc2", "fc3",
        ]
        assert stats["conv2"].psums == 30_855_168

    def test_bad_trial_count_rejected(self):
        with pytest.raises(TuningError):
            GridSearchTuner(quadratic_space()).tune(n_trials=0)


class TestMaeriTasks:
    def test_fc_task_psums_objective(self, maeri128):
        layer = FcLayer("f", in_features=256, out_features=128)
        task = MaeriFcTask(layer, maeri128, objective="psums")
        result = GridSearchTuner(task).tune(n_trials=5000)
        best = task.best_mapping(result.best_config)
        # Table VI structure: psum tuning drives T_K to 1 and maximizes T_S.
        assert best.T_K == 1
        assert best.T_S == 128

    def test_fc_task_cycles_objective_prefers_balance(self, maeri128):
        layer = FcLayer("f", in_features=256, out_features=128)
        task = MaeriFcTask(layer, maeri128, objective="cycles")
        result = GridSearchTuner(task).tune(n_trials=5000)
        best = task.best_mapping(result.best_config)
        assert best.T_K > 1  # cycle tuning uses spatial reduction

    def test_conv_task_valid_best(self, maeri128):
        layer = ConvLayer("c", C=8, H=10, W=10, K=16, R=3, S=3)
        task = MaeriConvTask(layer, maeri128, objective="psums",
                             max_options_per_tile=4)
        result = XGBTuner(task, seed=0).tune(n_trials=80)
        mapping = task.best_mapping(result.best_config)
        mapping.validate_for(layer, maeri128.ms_size)

    def test_invalid_objective_rejected(self, maeri128):
        with pytest.raises(TuningError, match="objective"):
            MaeriFcTask(
                FcLayer("f", in_features=8, out_features=8),
                maeri128,
                objective="latency",
            )


class TestRecords:
    def test_best_tracking(self):
        records = TuningRecords()
        records.add(0, {"a": 1}, 10.0)
        records.add(1, {"a": 2}, INVALID_COST)
        records.add(2, {"a": 3}, 5.0)
        assert records.best.cost == 5.0
        assert records.num_valid == 2
        assert records.best_cost_curve() == [10.0, 10.0, 5.0]

    def test_jsonl_roundtrip(self, tmp_path):
        records = TuningRecords(objective="psums")
        records.add(0, {"a": 1}, 10.0)
        records.add(1, {"a": 2}, INVALID_COST)
        path = tmp_path / "log.jsonl"
        records.save_jsonl(path)
        restored = TuningRecords.load_jsonl(path)
        assert restored.objective == "psums"
        assert len(restored.trials) == 2
        assert restored.trials[1].cost == INVALID_COST

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TuningError, match="invalid record"):
            TuningRecords.load_jsonl(path)
