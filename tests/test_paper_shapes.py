"""Integration tests asserting the paper's headline result *shapes*.

These are the fast versions of the benchmarks: each checks that the
reproduction lands in (a generous band around) the factors the paper
reports, so regressions in the cycle model are caught by ``pytest`` runs
without executing the full benchmark harness.
"""

import pytest

from repro.bifrost import run_layers
from repro.mrna import MrnaMapper
from repro.session import Session
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.sigma import SigmaController
from repro.models import alexnet_conv_layers, alexnet_fc_layers
from repro.tuner import GridSearchTuner, MaeriFcTask
from repro.workloads import fig10_conv, multiplier_sweep


@pytest.fixture(scope="module")
def controller():
    return MaeriController(maeri_config())


class TestFig9Shape:
    """SIGMA at 50% sparsity: conv about 44% fewer cycles, FC about 54%."""

    def test_conv_band(self):
        layers = alexnet_conv_layers()
        dense = SigmaController(sigma_config(sparsity_ratio=0))
        sparse = SigmaController(sigma_config(sparsity_ratio=50))
        savings = [
            1 - sparse.run_conv(l).cycles / dense.run_conv(l).cycles
            for l in layers
        ]
        mean = sum(savings) / len(savings)
        assert 0.35 <= mean <= 0.50, f"conv sparsity saving {mean:.2%}"

    def test_fc_band(self):
        layers = alexnet_fc_layers()
        dense = SigmaController(sigma_config(sparsity_ratio=0))
        sparse = SigmaController(sigma_config(sparsity_ratio=50))
        savings = [
            1 - sparse.run_fc(l).cycles / dense.run_fc(l).cycles
            for l in layers
        ]
        mean = sum(savings) / len(savings)
        assert 0.48 <= mean <= 0.62, f"fc sparsity saving {mean:.2%}"

    def test_fc_saves_more_than_conv(self):
        conv = alexnet_conv_layers()[2]
        fc = alexnet_fc_layers()[0]
        dense = SigmaController(sigma_config(sparsity_ratio=0))
        sparse = SigmaController(sigma_config(sparsity_ratio=50))
        conv_saving = 1 - sparse.run_conv(conv).cycles / dense.run_conv(conv).cycles
        fc_saving = 1 - sparse.run_fc(fc).cycles / dense.run_fc(fc).cycles
        assert fc_saving > conv_saving


class TestFig10Shape:
    """Optimal/suboptimal gap grows with multipliers; optimal scales."""

    @staticmethod
    def _best_worst(ms_size: int):
        layer = fig10_conv()
        controller = MaeriController(maeri_config(ms_size=ms_size))
        best = worst = None
        from repro.stonne.mapping import enumerate_conv_mappings

        for mapping in enumerate_conv_mappings(layer, ms_size, max_tile_options=4):
            cycles = controller.run_conv(layer, mapping).cycles
            if best is None or cycles < best:
                best = cycles
            if worst is None or cycles > worst:
                worst = cycles
        return best, worst

    def test_gap_grows_with_multipliers(self):
        b8, w8 = self._best_worst(8)
        b128, w128 = self._best_worst(128)
        assert w8 / b8 >= 2, "even small arrays punish bad mappings"
        assert w128 / b128 > 2 * (w8 / b8), "gap must grow with array size"

    def test_optimal_scales_with_multipliers(self):
        cycles = [self._best_worst(ms)[0] for ms in multiplier_sweep()]
        assert cycles == sorted(cycles, reverse=True)
        ratio = cycles[0] / cycles[-1]  # 8 vs 128 multipliers
        assert 6 <= ratio <= 20, f"8->128 optimal-mapping speedup {ratio:.1f}"


class TestFig11Shape:
    """Tuned (psums) vs default mapping on MAERI-128."""

    def test_fc_speedup_band(self, controller):
        """Paper: ~11x average for the fully connected layers."""
        speedups = []
        for layer in alexnet_fc_layers():
            basic = controller.run_fc(layer, FcMapping.basic()).cycles
            tuned = controller.run_fc(layer, FcMapping(T_S=128, T_K=1)).cycles
            speedups.append(basic / tuned)
        mean = sum(speedups) / len(speedups)
        assert 8 <= mean <= 14, f"fc tuned speedup {mean:.1f}x"

    def test_conv_speedup_band(self, controller):
        """Paper: ~51x average (max 77x) for the conv layers."""
        mapper_cfg = maeri_config()
        speedups = []
        for layer in alexnet_conv_layers():
            task_best = None
            # psum-optimal structured mapping: maximize spatial reduction
            from repro.tuner import MaeriConvTask, GridSearchTuner

            task = MaeriConvTask(layer, mapper_cfg, objective="psums",
                                 max_options_per_tile=4)
            result = GridSearchTuner(task).tune(n_trials=4000)
            tuned_mapping = task.best_mapping(result.best_config)
            basic = controller.run_conv(layer, ConvMapping.basic()).cycles
            tuned = controller.run_conv(layer, tuned_mapping).cycles
            speedups.append(basic / tuned)
        mean = sum(speedups) / len(speedups)
        assert 30 <= mean <= 80, f"conv tuned speedup {mean:.1f}x"


class TestFig12AndTable6Shape:
    """mRNA beats psum-tuned mappings; Table VI structure."""

    def test_fc_psum_optimum_is_skewed_and_layer_invariant(self):
        config = maeri_config()
        chosen = []
        for layer in alexnet_fc_layers():
            task = MaeriFcTask(layer, config, objective="psums")
            result = GridSearchTuner(task).tune(n_trials=20000)
            chosen.append(task.best_mapping(result.best_config).as_tuple())
        # same structure for every layer: T_S maximal, T_K = T_N = 1
        assert len(set(chosen)) == 1
        t_s, t_k, t_n = chosen[0]
        assert t_k == 1 and t_n == 1 and t_s == 128

    def test_mrna_beats_autotvm_on_fc(self, controller):
        mapper = MrnaMapper(maeri_config())
        for layer in alexnet_fc_layers():
            autotvm_cycles = controller.run_fc(
                layer, FcMapping(T_S=128, T_K=1)
            ).cycles
            mrna_cycles = controller.run_fc(layer, mapper.map_fc(layer)).cycles
            saving = 1 - mrna_cycles / autotvm_cycles
            assert saving > 0.5, f"{layer.name}: mRNA saving {saving:.2%}"

    def test_mrna_mappings_vary_per_fc_layer(self):
        mapper = MrnaMapper(maeri_config())
        tuples = [mapper.map_fc(l).as_tuple() for l in alexnet_fc_layers()]
        assert len(set(tuples)) >= 2

    def test_mrna_modestly_better_on_conv(self, controller):
        """Paper: mRNA ~20% fewer cycles than psum-tuned on conv."""
        from repro.tuner import MaeriConvTask

        mapper = MrnaMapper(maeri_config())
        layer = alexnet_conv_layers()[2]  # conv3
        task = MaeriConvTask(layer, maeri_config(), objective="psums",
                             max_options_per_tile=4)
        result = GridSearchTuner(task).tune(n_trials=4000)
        tuned = controller.run_conv(layer, task.best_mapping(result.best_config)).cycles
        mrna = controller.run_conv(layer, mapper.map_conv(layer)).cycles
        saving = 1 - mrna / tuned
        assert 0.0 <= saving <= 0.5, f"conv mRNA saving {saving:.2%}"


class TestEndToEndAlexNetSubset:
    def test_run_layers_with_mrna_session(self):
        """Whole-pipeline smoke: AlexNet FC stack under the mRNA strategy."""
        with Session(simulator_config=maeri_config(), mapping="mrna") as s:
            stats = run_layers(alexnet_fc_layers(), s)
        assert len(stats) == 3
        assert all(s.cycles > 0 for s in stats)
