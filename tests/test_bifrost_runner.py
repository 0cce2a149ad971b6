"""End-to-end tests: whole models through Bifrost (the paper's §IV flow)."""

import numpy as np
import pytest

import repro.frontends.torchlike as tl
from repro.bifrost import run_graph, run_layers, run_torch_stonne
from repro.bifrost.strategies import active_session
from repro.models import lenet_graph
from repro.runtime import compile_graph
from repro.session import Session, zoo_layers
from repro.stonne.config import maeri_config, sigma_config, tpu_config
from repro.stonne.layer import ConvLayer, FcLayer


@pytest.fixture
def lenet_input(rng):
    return rng.normal(size=(1, 1, 28, 28))


@pytest.fixture
def make_api():
    """Build ``Session(...).api`` endpoints; every session closes at
    teardown."""
    sessions = []

    def build(config, mapping="default"):
        session = Session(simulator_config=config, mapping=mapping)
        sessions.append(session)
        return session.api

    yield build
    for session in sessions:
        session.close()


class TestRunGraph:
    @pytest.mark.parametrize("config_fn", [maeri_config, sigma_config, tpu_config])
    def test_output_matches_cpu_execution(
        self, rng, lenet_input, config_fn, make_api
    ):
        """Offloaded execution must be numerically identical to CPU-only
        (Bifrost's correctness-verification story)."""
        session = make_api(config_fn())
        offloaded = run_graph(lenet_graph(), {"data": lenet_input}, session)
        cpu = compile_graph(lenet_graph(), apply_passes=False)(lenet_input)
        np.testing.assert_allclose(offloaded.output, cpu, rtol=1e-9)

    def test_layer_stats_cover_accelerated_layers(
        self, lenet_input, maeri128, make_api
    ):
        session = make_api(maeri128)
        result = run_graph(lenet_graph(), {"data": lenet_input}, session)
        names = [s.layer_name for s in result.layer_stats]
        assert names == ["conv1", "conv2", "fc1", "fc2", "fc3"]
        assert result.total_cycles > 0
        assert result.total_psums > 0

    def test_session_uninstalled_after_run(self, lenet_input, maeri128, make_api):
        session = make_api(maeri128)
        run_graph(lenet_graph(), {"data": lenet_input}, session)
        assert active_session() is None

    def test_session_uninstalled_after_failure(self, maeri128, make_api):
        session = make_api(maeri128)
        with pytest.raises(Exception):
            run_graph(lenet_graph(), {"wrong_feed": np.ones(1)}, session)
        assert active_session() is None

    def test_mrna_strategy_faster_than_default(
        self, lenet_input, maeri128, make_api
    ):
        default = run_graph(
            lenet_graph(), {"data": lenet_input}, make_api(maeri128)
        )
        mrna = run_graph(
            lenet_graph(), {"data": lenet_input},
            make_api(maeri128, mapping="mrna"),
        )
        np.testing.assert_allclose(mrna.output, default.output, rtol=1e-9)
        assert mrna.total_cycles < default.total_cycles

    def test_combined_stats(self, lenet_input, maeri128, make_api):
        session = make_api(maeri128)
        result = run_graph(lenet_graph(), {"data": lenet_input}, session)
        combined = result.combined("lenet")
        assert combined.cycles == result.total_cycles
        assert combined.layer_name == "lenet"


class TestRunTorchStonne:
    def test_listing1_entry_point(self, rng, maeri128, make_api):
        model = tl.Sequential(
            tl.Conv2d(1, 4, 3, padding=1),
            tl.ReLU(),
            tl.Flatten(),
            tl.Linear(4 * 8 * 8, 10),
        )
        batch = rng.normal(size=(1, 1, 8, 8))
        session = make_api(maeri128)
        result = run_torch_stonne(model, batch, session)
        cpu = compile_graph(
            __import__("repro.frontends.torchlike", fromlist=["from_torchlike"])
            .from_torchlike(model, (1, 1, 8, 8)),
            apply_passes=False,
        )(batch)
        np.testing.assert_allclose(result.output, cpu, rtol=1e-9)
        assert len(result.layer_stats) == 2  # conv + dense


class TestRunLayers:
    def test_bare_descriptors(self, maeri128, make_api):
        session = make_api(maeri128, mapping="mrna")
        layers = [
            ConvLayer("c1", C=4, H=10, W=10, K=8, R=3, S=3),
            FcLayer("f1", in_features=128, out_features=64),
        ]
        stats = run_layers(layers, session)
        assert [s.layer_name for s in stats] == ["c1", "f1"]
        assert session.stats == stats

    def test_sigma_descriptors_ignore_mappings(self, make_api):
        session = make_api(sigma_config(sparsity_ratio=50))
        stats = run_layers(
            [FcLayer("f", in_features=256, out_features=128)], session
        )
        assert stats[0].cycles > 0

    def test_rejects_unknown_descriptor(self, maeri128, make_api):
        session = make_api(maeri128)
        with pytest.raises(TypeError, match="ConvLayer/FcLayer"):
            run_layers(["not a layer"], session)

    def test_accepts_session_object(self):
        with Session(mapping="default") as s:
            stats = run_layers(zoo_layers("mlp"), s)
            assert len(stats) == len(zoo_layers("mlp"))
            assert s.api.stats == stats
