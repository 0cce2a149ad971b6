"""Tests for the STONNE-Bifrost API and its packed-function registry."""

import numpy as np
import pytest

from repro.bifrost import (
    MappingConfigurator,
    MappingStrategy,
    StonneBifrostApi,
    get_packed_func,
    register_packed_funcs,
    registered_packed_funcs,
)
from repro.errors import LayerError, SimulationError
from repro.stonne.config import magma_config, maeri_config, sigma_config, tpu_config
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.topi import conv2d_nchw, dense as dense_ref, kcrs_to_rsck, nchw_to_nhwc, nhwc_to_nchw
from repro.topi.conv2d import conv2d_direct_nchw


def make_api(config, strategy=MappingStrategy.DEFAULT):
    return StonneBifrostApi(
        config=config,
        mappings=MappingConfigurator(config=config, strategy=strategy),
    )


class TestConstruction:
    def test_plain_construction_builds_a_serial_engine(self, rng, maeri128):
        api = make_api(maeri128)
        assert api.engine.backend.name == "serial"
        assert api.mappings.engine is api.engine
        with api:
            out = api.dense(rng.normal(size=(1, 8)), rng.normal(size=(4, 8)))
        assert out.shape == (1, 4)
        assert api.engine.num_simulations == 1


class TestConv2dNchw:
    def test_output_matches_reference_all_architectures(self, rng):
        data = rng.normal(size=(1, 3, 10, 10))
        weights = rng.normal(size=(4, 3, 3, 3))
        expected = conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
        for config in (maeri_config(), sigma_config(), tpu_config()):
            api = make_api(config)
            out = api.conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
            np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_stats_recorded_per_layer(self, rng, maeri128):
        api = make_api(maeri128)
        data = rng.normal(size=(1, 2, 8, 8))
        weights = rng.normal(size=(4, 2, 3, 3))
        api.conv2d_nchw(data, weights, layer_name="convA")
        api.conv2d_nchw(data, weights, layer_name="convA")
        assert [s.layer_name for s in api.stats] == ["convA", "convA#1"]
        assert api.total_cycles() == sum(s.cycles for s in api.stats)

    def test_reset_stats(self, rng, maeri128):
        api = make_api(maeri128)
        api.conv2d_nchw(
            rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(4, 2, 3, 3))
        )
        api.reset_stats()
        assert api.stats == [] and api.total_cycles() == 0

    def test_rejects_bad_rank(self, rng, maeri128):
        api = make_api(maeri128)
        with pytest.raises(LayerError):
            api.conv2d_nchw(rng.normal(size=(3, 8, 8)), rng.normal(size=(4, 3, 3, 3)))


class TestDirectLoopOracle:
    """The offload path against the loop-based direct convolution, which
    shares no im2col or layout code with it (NHWC is built with plain
    ``np.transpose``)."""

    @pytest.mark.parametrize(
        "config_fn", [maeri_config, sigma_config, tpu_config, magma_config]
    )
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_nchw_and_nhwc_match_direct_loop(
        self, rng, config_fn, stride, pad, groups
    ):
        data = rng.normal(size=(1, 4, 7, 7))
        weights = rng.normal(size=(6, 4 // groups, 3, 3))
        conv = dict(strides=(stride, stride), padding=(pad, pad), groups=groups)
        expected = conv2d_direct_nchw(data, weights, **conv)
        api = make_api(config_fn())
        np.testing.assert_allclose(
            api.conv2d_nchw(data, weights, **conv), expected, rtol=1e-9
        )
        out_nhwc = api.conv2d_nhwc(
            data.transpose(0, 2, 3, 1), weights.transpose(2, 3, 1, 0), **conv
        )
        np.testing.assert_allclose(
            out_nhwc, expected.transpose(0, 2, 3, 1), rtol=1e-9
        )


class TestConv2dNhwc:
    def test_nhwc_equals_nchw_path(self, rng, maeri128):
        data = rng.normal(size=(1, 3, 10, 10))
        weights = rng.normal(size=(4, 3, 3, 3))
        api = make_api(maeri128)
        out_nchw = api.conv2d_nchw(data, weights, padding=(1, 1))
        out_nhwc = api.conv2d_nhwc(
            nchw_to_nhwc(data), kcrs_to_rsck(weights), padding=(1, 1)
        )
        np.testing.assert_allclose(nhwc_to_nchw(out_nhwc), out_nchw, rtol=1e-9)


class TestDense:
    def test_output_matches_reference(self, rng):
        data = rng.normal(size=(1, 64))
        weights = rng.normal(size=(32, 64))
        for config in (maeri_config(), sigma_config(), tpu_config()):
            api = make_api(config)
            np.testing.assert_allclose(
                api.dense(data, weights), dense_ref(data, weights), rtol=1e-9
            )

    def test_batch_n_output_and_sequential_stats(self, rng, maeri128):
        """Batch-N dense: exact outputs for every row, stats = N runs."""
        data = rng.normal(size=(3, 8))
        weights = rng.normal(size=(4, 8))
        api = make_api(maeri128)
        out = api.dense(data, weights)
        np.testing.assert_allclose(out, dense_ref(data, weights), rtol=1e-9)
        single = make_api(maeri128)
        single.dense(data[:1], weights)
        assert api.stats[0].cycles == 3 * single.stats[0].cycles


class TestSparsityPath:
    def test_sigma_prunes_weights_functionally(self, rng):
        """At 100% sparsity the output must be exactly zero."""
        api = make_api(sigma_config(sparsity_ratio=100))
        out = api.dense(rng.normal(size=(1, 16)), rng.normal(size=(8, 16)))
        np.testing.assert_array_equal(out, np.zeros((1, 8)))

    def test_sigma_sparsity_reduces_cycles(self, rng):
        data = rng.normal(size=(1, 512))
        weights = rng.normal(size=(256, 512))
        dense_api = make_api(sigma_config(sparsity_ratio=0))
        sparse_api = make_api(sigma_config(sparsity_ratio=50))
        dense_api.dense(data, weights)
        sparse_api.dense(data, weights)
        assert sparse_api.total_cycles() < dense_api.total_cycles()

    def test_maeri_never_prunes(self, rng, maeri128):
        api = make_api(maeri128)
        weights = rng.normal(size=(8, 16))
        out = api.dense(np.ones((1, 16)), weights)
        np.testing.assert_allclose(out, np.ones((1, 16)) @ weights.T)


class TestManualMappings:
    def test_manual_mapping_changes_cycles(self, rng, maeri128):
        data = rng.normal(size=(1, 64))
        weights = rng.normal(size=(32, 64))

        api_basic = make_api(maeri128)
        api_basic.dense(data, weights, layer_name="fc")

        mappings = MappingConfigurator(config=maeri128)
        mappings.set_manual("fc", FcMapping(T_S=16, T_K=8))
        api_manual = StonneBifrostApi(config=maeri128, mappings=mappings)
        api_manual.dense(data, weights, layer_name="fc")

        assert api_manual.total_cycles() < api_basic.total_cycles()

    def test_manual_wrong_kind_rejected(self, rng, maeri128):
        mappings = MappingConfigurator(config=maeri128)
        mappings.set_manual("fc", ConvMapping())
        api = StonneBifrostApi(config=maeri128, mappings=mappings)
        from repro.errors import MappingError

        with pytest.raises(MappingError, match="fully connected"):
            api.dense(rng.normal(size=(1, 8)), rng.normal(size=(4, 8)),
                      layer_name="fc")


class TestPackedFunctionRegistry:
    def test_tvm_style_names(self, maeri128):
        api = make_api(maeri128)
        register_packed_funcs(api)
        names = registered_packed_funcs()
        assert "tvm.contrib.stonne.conv2d.nchw" in names
        assert "tvm.contrib.stonne.dense" in names
        assert get_packed_func("tvm.contrib.stonne.dense") == api.dense

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError, match="not registered"):
            get_packed_func("tvm.contrib.stonne.nonexistent")
