"""Tests for the distributed sweep subsystem (repro.fleet).

Covers the acceptance surface of the fleet tier: wire-protocol framing
(including truncated and oversized frames), worker daemon behaviour
over real localhost sockets, remote-vs-serial stats parity, crash
retry, and serial fallback.
"""

import socket
import struct
import threading

import pytest

from repro.engine import EvalRequest, EvaluationEngine, StatsCache
from repro.errors import MappingError
from repro.fleet import protocol
from repro.fleet.remote_backend import RemoteBackend
from repro.fleet.worker import FleetWorker, parse_address, start_worker
from repro.stonne.config import maeri_config, tpu_config
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping

CONFIG = maeri_config()


def _conv(i=0, **kwargs):
    return ConvLayer(f"conv{i}", C=8, H=12, W=12, K=8, R=3, S=3, **kwargs)


def _requests(n=6):
    mappings = [
        ConvMapping(T_R=3, T_S=3),
        ConvMapping(T_K=2),
        ConvMapping(T_C=2),
        ConvMapping(),
        ConvMapping(T_R=3),
        ConvMapping(T_S=3, T_K=4),
    ]
    return [
        EvalRequest(_conv(i), mappings[i % len(mappings)]) for i in range(n)
    ]


def _stats_dicts(stats_list):
    return [s.to_dict() for s in stats_list]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        message = {"type": "ping", "nested": {"a": [1, 2, {"b": None}]}}
        decoded, rest = protocol.decode_frame(protocol.encode_frame(message))
        assert decoded == message
        assert rest == b""

    def test_round_trip_leaves_following_bytes(self):
        frame = protocol.encode_frame({"type": "ping"})
        decoded, rest = protocol.decode_frame(frame + b"tail")
        assert decoded == {"type": "ping"}
        assert rest == b"tail"

    def test_truncated_prefix_raises(self):
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.decode_frame(b"\x00\x00")

    def test_truncated_payload_raises(self):
        frame = protocol.encode_frame({"type": "ping"})
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.decode_frame(frame[:-1])

    def test_oversized_length_prefix_raises(self):
        bogus = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_frame(bogus + b"x")

    def test_oversized_message_refused_on_encode(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_non_json_payload_raises(self):
        frame = struct.pack(">I", 4) + b"{{{{"
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_frame(frame)

    def test_non_object_payload_raises(self):
        frame = struct.pack(">I", 2) + b"42"
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode_frame(frame)


class TestStructuralWire:
    @pytest.mark.parametrize(
        "layer",
        [
            _conv(pad_h=1, stride_w=2, N=3),
            FcLayer("fc", in_features=64, out_features=16, batch=2),
            GemmLayer("g", M=4, K=8, N=16),
        ],
    )
    def test_layer_round_trip(self, layer):
        assert protocol.layer_from_wire(protocol.layer_to_wire(layer)) == layer

    @pytest.mark.parametrize(
        "mapping",
        [None, ConvMapping(T_R=3, T_K=2), FcMapping(T_S=4, T_K=8)],
    )
    def test_mapping_round_trip(self, mapping):
        wire = protocol.mapping_to_wire(mapping)
        assert protocol.mapping_from_wire(wire) == mapping

    def test_malformed_layer_raises(self):
        with pytest.raises(protocol.ProtocolError, match="malformed"):
            protocol.layer_from_wire({"kind": "NoSuchLayer", "fields": {}})

    def test_known_exception_round_trips_by_name(self):
        entry = {"error": "tile too big", "error_type": "MappingError"}
        exc = protocol.exception_from_wire(entry)
        assert isinstance(exc, MappingError)
        assert "tile too big" in str(exc)

    def test_unknown_exception_degrades_to_simulation_error(self):
        from repro.errors import SimulationError

        exc = protocol.exception_from_wire(
            {"error": "boom", "error_type": "SomethingForeign"}
        )
        assert isinstance(exc, SimulationError)

    def test_engine_spec_rejects_mock_configs(self):
        class Mock:
            controller_type = CONFIG.controller_type

        engine = EvaluationEngine(CONFIG)
        engine.config = Mock()  # duck-typed, no to_dict
        with pytest.raises(protocol.ProtocolError, match="to_dict"):
            protocol.engine_spec(engine)

    def test_rebuild_controller_verifies_fingerprint(self):
        engine = EvaluationEngine(CONFIG)
        spec = protocol.engine_spec(engine)
        controller, _, functional = protocol.rebuild_controller(spec)
        assert type(controller) is type(engine.controller)
        assert functional is False
        spec["fingerprint"] = "deadbeef"
        with pytest.raises(protocol.ProtocolError, match="fingerprint"):
            protocol.rebuild_controller(spec)


def test_parse_address():
    assert parse_address("host:1234") == ("host", 1234)
    assert parse_address(":1234") == ("127.0.0.1", 1234)
    assert parse_address("host", default_port=7) == ("host", 7)
    with pytest.raises(protocol.ProtocolError, match="HOST:PORT"):
        parse_address("host:notaport")


# ----------------------------------------------------------------------
# worker daemon + remote backend over localhost sockets
# ----------------------------------------------------------------------
@pytest.fixture
def worker():
    server, _ = start_worker()
    yield server
    server.close()


class TestWorkerDaemon:
    def test_hello_capabilities_and_ping(self, worker):
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            hello = protocol.recv_message(sock)
            assert hello["type"] == "hello"
            assert hello["version"] == protocol.PROTOCOL_VERSION
            assert "MAERI_DENSE_WORKLOAD" in hello["capabilities"]
            protocol.send_message(sock, {"type": "ping"})
            assert protocol.recv_message(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_unknown_message_type_gets_error(self, worker):
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            protocol.recv_message(sock)  # hello
            protocol.send_message(sock, {"type": "transmogrify"})
            response = protocol.recv_message(sock)
            assert response["type"] == "error"
            assert "transmogrify" in response["error"]
        finally:
            sock.close()

    def test_bad_spec_is_batch_fatal_error(self, worker):
        engine = EvaluationEngine(CONFIG)
        spec = protocol.engine_spec(engine)
        spec["fingerprint"] = "deadbeef"
        message = protocol.evaluate_batch_message(
            spec, [(0, None, _conv(), ConvMapping())]
        )
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            protocol.recv_message(sock)  # hello
            protocol.send_message(sock, message)
            response = protocol.recv_message(sock)
            assert response["type"] == "error"
            assert "fingerprint" in response["error"]
        finally:
            sock.close()

    def test_worker_local_cache_serves_repeats(self):
        cache = StatsCache()
        server, _ = start_worker(cache=cache)
        try:
            engine = EvaluationEngine(CONFIG, cache_enabled=False)
            backend = RemoteBackend(workers=[server.address])
            key = ("shared-key",)
            items = [(key, EvalRequest(_conv(), ConvMapping(T_R=3)))]
            first = backend.run_chunk(engine, items)
            second = backend.run_chunk(engine, items)
            assert first[0][1].to_dict() == second[0][1].to_dict()
            assert cache.hits == 1  # the second batch hit the worker cache
            backend.close()
        finally:
            server.close()


class TestRemoteParity:
    def test_remote_matches_serial_bit_for_bit(self):
        w1, _ = start_worker()
        w2, _ = start_worker()
        try:
            requests = _requests()
            remote_engine = EvaluationEngine(
                CONFIG,
                cache=StatsCache(),
                executor=RemoteBackend(workers=[w1.address, w2.address]),
            )
            serial_engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor="serial"
            )
            remote = remote_engine.evaluate_many(requests)
            serial = serial_engine.evaluate_many(requests)
            assert _stats_dicts(remote) == _stats_dicts(serial)
            # Both workers actually participated (round-robin sharding).
            assert w1.items_served and w2.items_served
            assert w1.items_served + w2.items_served == len(requests)
            remote_engine.close()
            serial_engine.close()
        finally:
            w1.close()
            w2.close()

    def test_remote_parity_on_gemm_architecture(self):
        """Mapping-free architectures (TPU) travel the wire too."""
        config = tpu_config()
        server, _ = start_worker()
        try:
            requests = [
                EvalRequest(GemmLayer(f"g{i}", M=8, K=16, N=4 + i))
                for i in range(4)
            ]
            remote_engine = EvaluationEngine(
                config, executor=RemoteBackend(workers=[server.address])
            )
            serial_engine = EvaluationEngine(config, executor="serial")
            assert _stats_dicts(remote_engine.evaluate_many(requests)) == (
                _stats_dicts(serial_engine.evaluate_many(requests))
            )
            remote_engine.close()
        finally:
            server.close()

    def test_per_item_mapping_error_round_trips(self):
        server, _ = start_worker()
        try:
            engine = EvaluationEngine(
                CONFIG,
                cache=StatsCache(),
                executor=RemoteBackend(workers=[server.address]),
            )
            good = EvalRequest(_conv(), ConvMapping(T_R=3))
            bad = EvalRequest(_conv(), ConvMapping(T_K=512))  # 512*1 > 128 MS
            results = engine.evaluate_many([good, bad], return_errors=True)
            assert results[0].cycles > 0
            assert isinstance(results[1], MappingError)
            engine.close()
        finally:
            server.close()


class _VanishingServer:
    """A rogue peer: speaks hello, then drops the connection mid-batch."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                try:
                    protocol.send_message(
                        conn, protocol.hello_message([], pid=0)
                    )
                    protocol.recv_message(conn)  # read the batch...
                except (OSError, protocol.ProtocolError):
                    pass
                # ...and vanish without answering: a crash mid-batch.

    def close(self):
        self._listener.close()


class TestFailover:
    def test_crash_mid_batch_retries_on_survivor(self):
        rogue = _VanishingServer()
        survivor, _ = start_worker()
        try:
            backend = RemoteBackend(workers=[rogue.address, survivor.address])
            engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor=backend
            )
            serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
            requests = _requests()
            assert _stats_dicts(engine.evaluate_many(requests)) == (
                _stats_dicts(serial.evaluate_many(requests))
            )
            assert backend.retried_shards >= 1
            assert backend.fallback_batches == 0
            engine.close()
        finally:
            rogue.close()
            survivor.close()

    def test_unreachable_fleet_falls_back_to_serial(self):
        backend = RemoteBackend(workers=["127.0.0.1:1"])
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
        requests = _requests(3)
        assert _stats_dicts(engine.evaluate_many(requests)) == (
            _stats_dicts(serial.evaluate_many(requests))
        )
        assert backend.fallback_batches >= 1
        engine.close()

    def test_unreachable_fleet_batches_a_tuner_generation(self, monkeypatch):
        """The fallback slot runs the inline chunk path: one tuner
        generation (many mappings of one layer) reaches the batch
        kernels through one ``simulate_chunk`` call, never per-item
        ``simulate_layer``, and its stats equal serial."""
        from itertools import islice

        import repro.engine.backends as backends_mod
        from repro.tuner import MaeriConvTask

        real_chunk = backends_mod.simulate_chunk
        real_layer = backends_mod.simulate_layer
        chunks, scalar = [], []

        def recording_chunk(controller, pairs, functional):
            payloads = real_chunk(controller, pairs, functional)
            chunks.append([
                p if isinstance(p, Exception) else p.to_dict()
                for p in payloads
            ])
            return payloads

        def recording_layer(controller, layer, mapping, functional):
            scalar.append(layer.name)
            return real_layer(controller, layer, mapping, functional)

        monkeypatch.setattr(backends_mod, "simulate_chunk", recording_chunk)
        monkeypatch.setattr(backends_mod, "simulate_layer", recording_layer)
        layer = ConvLayer("gen.conv", C=16, H=14, W=14, K=16, R=3, S=3)

        def one_generation(executor):
            chunks.clear()
            engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor=executor
            )
            task = MaeriConvTask(layer, CONFIG, objective="cycles", engine=engine)
            generation = list(islice(task.space.valid_indices(), 24))
            assert all(r.valid for r in task.measure_batch(generation))
            engine.close()
            return list(chunks)

        serial = one_generation("serial")
        backend = RemoteBackend(workers=["127.0.0.1:1"])
        remote = one_generation(backend)
        assert len(remote) == 1 and len(remote[0]) == 24
        assert scalar == []
        assert remote == serial
        assert backend.fallback_batches == 1

    def test_items_a_worker_dropped_run_as_one_inline_chunk(self, monkeypatch):
        """A skewed peer's answer keeps only its well-formed entries;
        every dropped, undecodable or out-of-range item runs through
        one inline ``simulate_chunk`` call, in submission order."""
        import repro.engine.backends as backends_mod

        real_chunk = backends_mod.simulate_chunk
        chunk_sizes = []

        def recording_chunk(controller, pairs, functional):
            chunk_sizes.append(len(pairs))
            return real_chunk(controller, pairs, functional)

        monkeypatch.setattr(backends_mod, "simulate_chunk", recording_chunk)
        requests = _requests(4)
        serial = EvaluationEngine(CONFIG, cache=StatsCache()).evaluate_many(
            requests
        )
        chunk_sizes.clear()
        items = [(f"k{i}", request) for i, request in enumerate(requests)]
        response = {"type": "results", "items": [
            {"pos": 0, "stats": serial[0].to_dict()},
            {"pos": 0, "stats": serial[3].to_dict()},  # duplicate: ignored
            {"pos": 1, "stats": {}},                   # undecodable
            {"pos": 3, "error": "bad tile", "error_type": "MappingError"},
            {"pos": 7, "stats": serial[0].to_dict()},  # unknown position
            {"pos": "2", "stats": serial[2].to_dict()},  # not an index
        ]}
        engine = EvaluationEngine(CONFIG, cache=StatsCache())
        decoded = RemoteBackend()._decode_results(engine, response, items)
        assert [key for key, _ in decoded] == ["k0", "k1", "k2", "k3"]
        assert [p.to_dict() for _, p in decoded[:3]] == (
            _stats_dicts(serial[:3])
        )
        assert isinstance(decoded[3][1], MappingError)
        assert chunk_sizes == [2]

    def test_no_workers_configured_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_WORKERS", raising=False)
        backend = RemoteBackend()
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        results = engine.evaluate_many(_requests(2))
        assert all(r.cycles > 0 for r in results)
        assert backend.fallback_batches == 1
        engine.close()

    def test_mock_config_not_remotable_falls_back(self, worker):
        class MockConfig:
            """Duck-typed config: simulates locally, has no to_dict."""

            def __init__(self, real):
                object.__setattr__(self, "_real", real)

            def __getattr__(self, name):
                if name == "to_dict":
                    raise AttributeError(name)
                return getattr(self._real, name)

        backend = RemoteBackend(workers=[worker.address])
        engine = EvaluationEngine(
            MockConfig(CONFIG), cache=StatsCache(), executor=backend
        )
        results = engine.evaluate_many(_requests(2))
        assert all(r.cycles > 0 for r in results)
        assert backend.fallback_batches == 1
        assert worker.batches_served == 0
        engine.close()


class TestRegistryAndSession:
    def test_remote_is_registered(self):
        from repro.engine import registered_backends

        assert "remote" in registered_backends()

    def test_make_backend_resolves_remote(self):
        from repro.engine import make_backend

        backend = make_backend("remote")
        assert isinstance(backend, RemoteBackend)

    def test_env_var_configures_workers(self, monkeypatch, worker):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", worker.address)
        backend = RemoteBackend()
        assert backend.ping() == {worker.address: True}
        backend.close()

    def test_session_with_workers_uses_remote_backend(self, worker):
        from repro.session import Session

        with Session(simulator_config=CONFIG, workers=[worker.address]) as s:
            assert isinstance(s.engine.backend, RemoteBackend)
            stats = s.engine.evaluate_many([EvalRequest(_conv(), ConvMapping())])
        assert stats[0].cycles > 0
        assert worker.items_served == 1

    def test_tuned_best_cost_remote_equals_serial(self, worker):
        """The acceptance criterion: a GA tune through the remote backend
        lands on the identical best config and cost as serial."""
        from repro.tuner import GATuner, MaeriConvTask

        layer = ConvLayer("t.conv", C=16, H=14, W=14, K=16, R=3, S=3)

        def tune(executor):
            engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=executor)
            task = MaeriConvTask(layer, CONFIG, objective="cycles", engine=engine)
            result = GATuner(task, seed=0).tune(n_trials=40)
            engine.close()
            return result.best_cost, task.best_mapping(result.best_config).as_tuple()

        serial_best = tune("serial")
        remote_best = tune(RemoteBackend(workers=[worker.address]))
        assert remote_best == serial_best


class TestFleetAutostart:
    """`fleet.autostart = N`: session-scoped worker daemon lifecycle."""

    def test_session_spawns_uses_and_reaps_workers(self, tmp_path):
        import os

        from repro.session import Session

        with Session(
            fleet_autostart=1, cache_path=str(tmp_path / "fleet.sqlite"),
        ) as session:
            assert session.engine.backend.name == "remote"
            assert len(session.fleet_workers) == 1
            pids = [proc.pid for proc in session._fleet_procs]
            report = session.run("mlp")
            assert report.total_cycles > 0
            # fallback 0 proves the autostarted daemon served the run.
            assert session.engine.backend.fallback_batches == 0
        # The regression guarantee: close() leaves no lingering
        # processes — every daemon is terminated *and* reaped.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_autostart_skipped_for_explicit_local_executor(self):
        from repro.session import Session

        # Spawning daemons nothing would talk to is pure waste: an
        # explicit non-remote executor suppresses autostart.
        with Session(fleet_autostart=2, executor="serial") as session:
            assert session.fleet_workers == []
            assert session.engine.backend.name == "serial"

    def test_autostart_zero_is_default_noop(self):
        from repro.session import Session

        with Session() as session:
            assert session.fleet_workers == []
