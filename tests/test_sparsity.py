"""Tests for pruning and bitmap compression (SIGMA's data path),
plus the sparsity-ratio sweep axis layered on top of it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError, SimulationError
from repro.session import Session, SessionConfig
from repro.stonne.sparsity import (
    BitmapTensor,
    measured_sparsity,
    prune_to_sparsity,
)
from repro.sweep import SweepPlan


class TestPruning:
    def test_exact_ratio(self, rng):
        weights = rng.normal(size=(40, 50))
        pruned = prune_to_sparsity(weights, 50)
        assert measured_sparsity(pruned) == pytest.approx(0.5, abs=0.001)

    def test_zero_ratio_is_identity(self, rng):
        weights = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(prune_to_sparsity(weights, 0), weights)

    def test_full_ratio_zeroes_everything(self, rng):
        pruned = prune_to_sparsity(rng.normal(size=(10, 10)), 100)
        assert np.count_nonzero(pruned) == 0

    def test_magnitude_order_preserved(self, rng):
        """Surviving weights are never smaller in magnitude than pruned ones."""
        weights = rng.normal(size=200)
        pruned = prune_to_sparsity(weights, 30)
        kept = np.abs(weights[pruned != 0])
        removed = np.abs(weights[pruned == 0])
        assert removed.max() <= kept.min() + 1e-12

    def test_input_not_modified(self, rng):
        weights = rng.normal(size=(10, 10))
        original = weights.copy()
        prune_to_sparsity(weights, 50)
        np.testing.assert_array_equal(weights, original)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(SimulationError):
            prune_to_sparsity(rng.normal(size=4), 101)

    @given(ratio=st.integers(0, 100))
    @settings(max_examples=25)
    def test_measured_tracks_requested(self, ratio):
        weights = np.random.default_rng(7).normal(size=1000)
        pruned = prune_to_sparsity(weights, ratio)
        assert abs(measured_sparsity(pruned) - ratio / 100) < 0.01


class TestBitmap:
    @given(
        dense=hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
            elements=st.floats(-10, 10, allow_nan=False).map(
                lambda x: 0.0 if abs(x) < 1 else x
            ),
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, dense):
        tensor = BitmapTensor.compress(dense)
        np.testing.assert_array_equal(tensor.decompress(), dense)

    def test_nnz_and_density(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        tensor = BitmapTensor.compress(dense)
        assert tensor.nnz == 2
        assert tensor.density == 0.5

    def test_compressed_elements_include_bitmap_overhead(self):
        dense = np.zeros(64)
        dense[0] = 1.0
        tensor = BitmapTensor.compress(dense)
        assert tensor.compressed_elements == 1 + 2  # 1 nnz + 64/32 bitmap words

    def test_measured_sparsity_rejects_empty(self):
        with pytest.raises(SimulationError):
            measured_sparsity(np.array([]))


class TestSparsityRatioAxis:
    """``architecture.sparsity_ratio`` as a first-class sweep axis."""

    def test_config_validates_the_ratio_range(self):
        SessionConfig.resolve(env=False, sparsity_ratio=0.9)  # fine
        with pytest.raises(ConfigError, match="sparsity_ratio"):
            SessionConfig.resolve(env=False, sparsity_ratio=1.0)
        with pytest.raises(ConfigError, match="sparsity_ratio"):
            SessionConfig.resolve(env=False, sparsity_ratio=-0.1)

    def test_ratio_maps_onto_the_controllers_percent_knob(self):
        config = SessionConfig.resolve(
            env=False, arch="sigma", sparsity_ratio=0.5
        )
        sim_config, _ = config.build_simulator_config()
        assert sim_config.sparsity_ratio == 50

    def test_zero_ratio_axis_point_is_dense(self):
        """An axis point of 0.0 over a sparse base config is the dense
        design: the ratio is the only sparsity knob, so nothing else
        can stand in for the zero."""
        config = SessionConfig.resolve(
            env=False, arch="sigma", sparsity_ratio=0.5
        )
        plan = SweepPlan.matrix(
            config, models=["alexnet"], axes={"sparsity_ratio": [0.0, 0.5]}
        )
        with Session(config) as session:
            report = session.sweep(plan)
        (dense,) = report.filter(sparsity_ratio=0.0)
        (sparse,) = report.filter(sparsity_ratio=0.5)
        assert dense.metric("total_cycles") == 7_366_350
        assert sparse.metric("total_cycles") == 4_151_703

    def test_axis_coerces_through_config_rules(self):
        config = SessionConfig.resolve(env=False, arch="sigma")
        plan = SweepPlan.matrix(
            config,
            models=["mlp"],
            axes={"architecture.sparsity_ratio": ["0.0", "0.5", "0.9"]},
        )
        ratios = [s.config.architecture.sparsity_ratio for s in plan.scenarios]
        assert ratios == [0.0, 0.5, 0.9]  # strings coerced to floats
        with pytest.raises(ConfigError):
            SweepPlan.matrix(
                config,
                models=["mlp"],
                axes={"architecture.sparsity_ratio": [1.5]},
            )

    def test_fig9_style_sweep_shape_and_filter(self):
        """One sweep reproduces Fig. 9's qualitative shape: AlexNet on
        SIGMA needs monotonically fewer cycles as sparsity rises, and
        each cell is reachable via ``filter(sparsity_ratio=...)``."""
        config = SessionConfig.resolve(env=False, arch="sigma")
        plan = SweepPlan.matrix(
            config,
            models=["alexnet"],
            axes={"architecture.sparsity_ratio": [0.0, 0.5, 0.9]},
        )
        with Session(config) as session:
            report = session.sweep(plan)
        assert len(report) == 3
        cycles = {}
        for ratio in (0.0, 0.5, 0.9):
            (result,) = report.filter(sparsity_ratio=ratio)
            cycles[ratio] = result.metric("total_cycles")
        assert cycles[0.0] > cycles[0.5] > cycles[0.9]
        # Fig. 9's quantitative band at 50%: fewer cycles overall, with
        # the whole-network saving between the paper's conv/fc means.
        saving = 1 - cycles[0.5] / cycles[0.0]
        assert 0.35 <= saving <= 0.62
