"""Tests for the mRNA analytical mapper."""

import pytest

from repro.errors import TuningError
from repro.mrna import MaeriAnalyticalModel, MrnaMapper
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping


@pytest.fixture
def mapper(maeri128):
    return MrnaMapper(maeri128)


@pytest.fixture
def conv():
    return ConvLayer("c", C=16, H=12, W=12, K=32, R=3, S=3, pad_h=1, pad_w=1)


@pytest.fixture
def fc():
    return FcLayer("f", in_features=1024, out_features=512)


class TestConstruction:
    def test_requires_maeri(self):
        with pytest.raises(TuningError, match="MAERI"):
            MrnaMapper(sigma_config())


class TestAnalyticalModel:
    def test_estimates_track_simulation(self, maeri128, conv, fc):
        """The analytical model should be within ~2% of simulated cycles
        (it ignores only config/pipeline-fill overheads)."""
        model = MaeriAnalyticalModel(maeri128)
        controller = MaeriController(maeri128)
        for mapping in [
            ConvMapping(T_R=3, T_S=3, T_C=8),
            ConvMapping(T_K=4, T_X=4, T_Y=4),
            ConvMapping.basic(),
        ]:
            estimated = model.conv_cycles(conv, mapping)
            simulated = controller.run_conv(conv, mapping).cycles
            assert abs(estimated - simulated) / simulated < 0.02
        for mapping in [FcMapping(T_S=16, T_K=8), FcMapping.basic()]:
            estimated = model.fc_cycles(fc, mapping)
            simulated = controller.run_fc(fc, mapping).cycles
            assert abs(estimated - simulated) / simulated < 0.02

    def test_utilization(self, maeri128, conv):
        model = MaeriAnalyticalModel(maeri128)
        assert model.conv_utilization(conv, ConvMapping(T_R=3, T_S=3, T_C=8)) == 72 / 128


class TestMapper:
    def test_conv_mapping_valid_and_fast(self, mapper, conv, maeri128):
        mapping = mapper.map_conv(conv)
        mapping.validate_for(conv, maeri128.ms_size)
        assert mapping.multipliers_used > 1

    def test_fc_mapping_valid(self, mapper, fc, maeri128):
        mapping = mapper.map_fc(fc)
        mapping.validate_for(fc, maeri128.ms_size)

    def test_beats_basic_mapping_by_far(self, mapper, maeri128, conv, fc):
        controller = MaeriController(maeri128)
        conv_mrna = controller.run_conv(conv, mapper.map_conv(conv)).cycles
        conv_basic = controller.run_conv(conv, ConvMapping.basic()).cycles
        assert conv_basic > 10 * conv_mrna

        fc_mrna = controller.run_fc(fc, mapper.map_fc(fc)).cycles
        fc_basic = controller.run_fc(fc, FcMapping.basic()).cycles
        assert fc_basic > 10 * fc_mrna

    def test_fc_uses_spatial_reduction(self, mapper, fc):
        """mRNA balances T_S and T_K, unlike psum-guided tuning."""
        mapping = mapper.map_fc(fc)
        assert mapping.T_K > 1

    def test_mappings_vary_per_layer(self, mapper):
        """Table VI: mRNA adapts the mapping to layer characteristics."""
        a = mapper.map_fc(FcLayer("a", in_features=9216, out_features=4096))
        b = mapper.map_fc(FcLayer("b", in_features=4096, out_features=1000))
        assert (a.T_S, a.T_K) != (b.T_S, b.T_K) or a != b

    def test_score_includes_estimate(self, mapper, conv):
        choice = mapper.score_conv(conv)
        assert choice.estimated_cycles > 0

    def test_candidates_respect_capacity(self, mapper, conv, maeri128):
        for candidate in mapper.conv_candidates(conv):
            assert candidate.multipliers_used <= maeri128.ms_size

    def test_small_array_still_maps(self, conv):
        mapper = MrnaMapper(maeri_config(ms_size=8))
        mapping = mapper.map_conv(conv)
        assert mapping.multipliers_used <= 8


def _random_conv(rng, index):
    groups = rng.choice([1, 2, 4])
    r, s = rng.randint(1, 4), rng.randint(1, 4)
    dil_h, dil_w = rng.randint(1, 2), rng.randint(1, 2)
    pad = rng.randint(0, 1)
    eff_r, eff_s = (r - 1) * dil_h + 1, (s - 1) * dil_w + 1
    return ConvLayer(
        f"c{index}",
        C=groups * rng.randint(1, 6),
        H=max(1, eff_r - 2 * pad) + rng.randint(0, 9),
        W=max(1, eff_s - 2 * pad) + rng.randint(0, 9),
        K=groups * rng.randint(1, 8),
        R=r, S=s,
        stride_h=rng.randint(1, 2), stride_w=rng.randint(1, 2),
        pad_h=pad, pad_w=pad,
        G=groups, dil_h=dil_h, dil_w=dil_w,
    )


def _random_fc(rng, index):
    return FcLayer(
        f"f{index}",
        in_features=rng.randint(1, 300),
        out_features=rng.randint(1, 300),
    )


class TestBatchScorerMemo:
    """The memoized candidate grid scores exactly like the scalar scan.

    The oracle is the original per-candidate loop
    (``_score_*_scalar``: ``ConvMapping`` objects, ``validate_for`` and
    the scalar analytical model), which shares no grid or array code
    with the batch path.
    """

    @pytest.mark.parametrize("ms_size", [8, 32, 64, 512])
    def test_conv_batch_equals_scalar_cold_and_memoized(self, ms_size):
        import random

        from repro.mrna.mapper import _candidate_tiles

        mapper = MrnaMapper(maeri_config(ms_size=ms_size))
        rng = random.Random(ms_size)
        layers = [_random_conv(rng, i) for i in range(12)]
        _candidate_tiles.cache_clear()
        for layer in layers:
            expected = mapper._score_conv_scalar(layer)
            for _ in range(2):  # cold, then served from the memo
                got = mapper.score_conv(layer)
                assert got.mapping == expected.mapping, layer
                assert got.estimated_cycles == expected.estimated_cycles
        info = _candidate_tiles.cache_info()
        assert info.hits >= len(layers)

    @pytest.mark.parametrize("ms_size", [8, 32, 64, 512])
    def test_fc_batch_equals_scalar_cold_and_memoized(self, ms_size):
        import random

        from repro.mrna.mapper import _candidate_tiles

        mapper = MrnaMapper(maeri_config(ms_size=ms_size))
        rng = random.Random(1000 + ms_size)
        layers = [_random_fc(rng, i) for i in range(12)]
        _candidate_tiles.cache_clear()
        for layer in layers:
            expected = mapper._score_fc_scalar(layer)
            for _ in range(2):
                got = mapper.score_fc(layer)
                assert got.mapping == expected.mapping, layer
                assert got.estimated_cycles == expected.estimated_cycles
        assert _candidate_tiles.cache_info().hits >= len(layers)

    def test_grid_is_shared_across_bandwidths_but_not_array_sizes(self, conv):
        from repro.mrna.mapper import _candidate_tiles

        _candidate_tiles.cache_clear()
        for dn_bw in (16, 32, 64, 128):
            MrnaMapper(maeri_config(ms_size=64, dn_bw=dn_bw)).score_conv(conv)
        assert _candidate_tiles.cache_info().currsize == 1
        MrnaMapper(maeri_config(ms_size=128)).score_conv(conv)
        assert _candidate_tiles.cache_info().currsize == 2

    def test_cached_grid_is_read_only(self):
        from repro.mrna.mapper import _candidate_tiles

        tiles = _candidate_tiles((3, 3, 4, 8, 5, 5), 64, (0, 1, 2, 3, 6, 7), 8)
        with pytest.raises(ValueError):
            tiles[0, 0] = 2
        assert tiles[0].tolist() == [1] * 8
