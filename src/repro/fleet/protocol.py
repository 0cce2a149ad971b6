"""The fleet wire protocol: length-prefixed JSON frames.

Every message between a :class:`~repro.fleet.remote_backend.RemoteBackend`
client and a :class:`~repro.fleet.worker.FleetWorker` daemon is one
*frame*: a 4-byte big-endian payload length followed by that many bytes
of UTF-8 JSON.  Framing is the entire transport contract — JSON keeps
the protocol debuggable with ``nc`` and version-tolerant (unknown keys
are ignored), and the length prefix makes truncation detectable: a
stream that ends mid-frame raises :class:`ProtocolError` instead of
silently yielding a partial batch.

Message vocabulary (the ``type`` field):

* ``hello`` — sent by the worker on accept: protocol version, pid, and
  the controller types it can rebuild (capabilities);
* ``evaluate_batch`` — client request: an engine spec (fingerprint +
  config/params/controller type + functional flag) and a list of
  ``(pos, key, layer, mapping)`` items;
* ``results`` — worker response: per-item ``(pos, key, stats)`` or
  ``(pos, error, error_type)`` entries, submission order preserved;
* ``ping``/``pong`` — heartbeat;
* ``bye`` — polite client disconnect.

The sweep service (:mod:`repro.serve`) speaks the same framing with its
own vocabulary: ``submit_sweep`` (a serialized
:class:`~repro.sweep.SweepPlan`, optionally with a resume archive),
``job_list``/``job_status``/``job_result``/``job_cancel``/``job_watch``
requests, ``job``/``jobs``/``job_result`` replies, and streamed
``progress`` events while a watch is active.

Both daemons support opt-in shared-secret authentication: a secured
peer's ``hello`` carries an ``auth`` challenge (scheme + random nonce)
and the first client message must be an ``auth`` frame whose digest is
``HMAC-SHA256(secret, nonce)`` — the secret itself never crosses the
wire.  A missing or wrong digest is answered with an ``error`` frame
and the connection is dropped before any state changes; clients raise
:class:`ProtocolError`.

Everything that crosses the wire is *structural*: layers and mappings
are dataclasses of plain scalars, cache keys are tuples of scalars
(JSON arrays on the wire, frozen back to tuples on arrival — the same
round-trip the JSONL cache tier uses), and the engine spec rebuilds a
bit-identical controller because
:func:`~repro.engine.evaluation.fingerprint_config` is recomputed and
verified on the worker side.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import socket
import struct
from dataclasses import asdict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import ReproError, SimulationError
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams
from repro.stonne.stats import SimulationStats

#: Protocol version; bumped on incompatible frame/message changes.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload.  A generation-sized batch of
#: conv layers is a few hundred kilobytes; anything near this bound is a
#: corrupt or hostile length prefix, not a real batch.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed, truncated or oversized fleet protocol frame."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON payload."""
    payload = json.dumps(message, default=str).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(data: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Decode one complete frame from ``data``; returns (message, rest).

    Raises :class:`ProtocolError` when ``data`` holds a truncated frame
    or an oversized length prefix.  (Socket paths use
    :func:`recv_message`; this byte-level form is for tests and for
    buffering transports.)
    """
    if len(data) < _LENGTH.size:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{_LENGTH.size}-byte length prefix"
        )
    (length,) = _LENGTH.unpack(data[: _LENGTH.size])
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            f"protocol limit"
        )
    end = _LENGTH.size + length
    if len(data) < end:
        raise ProtocolError(
            f"truncated frame: payload needs {length} bytes, got "
            f"{len(data) - _LENGTH.size}"
        )
    try:
        message = json.loads(data[_LENGTH.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message, data[end:]


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at offset 0."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None  # clean EOF between frames
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one message as a single frame."""
    sock.sendall(encode_frame(message))


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one message; None when the peer closed between frames."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            f"protocol limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None:  # EOF exactly after the prefix
        raise ProtocolError("connection closed mid-frame (after length prefix)")
    message, rest = decode_frame(prefix + payload)
    assert not rest
    return message


# ----------------------------------------------------------------------
# structural (de)serialization
# ----------------------------------------------------------------------
_LAYER_KINDS = {
    "ConvLayer": ConvLayer,
    "FcLayer": FcLayer,
    "GemmLayer": GemmLayer,
}
_MAPPING_KINDS = {"ConvMapping": ConvMapping, "FcMapping": FcMapping}


def layer_to_wire(layer) -> Dict[str, Any]:
    return {"kind": type(layer).__name__, "fields": asdict(layer)}


def layer_from_wire(data: Dict[str, Any]):
    try:
        cls = _LAYER_KINDS[data["kind"]]
        return cls(**data["fields"])
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed wire layer {data!r}: {exc}") from exc


def mapping_to_wire(mapping) -> Optional[Dict[str, Any]]:
    if mapping is None:
        return None
    return {"kind": type(mapping).__name__, "fields": asdict(mapping)}


def mapping_from_wire(data: Optional[Dict[str, Any]]):
    if data is None:
        return None
    try:
        cls = _MAPPING_KINDS[data["kind"]]
        return cls(**data["fields"])
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed wire mapping {data!r}: {exc}") from exc


def key_from_wire(key):
    """Freeze a JSON-decoded cache key back into nested tuples."""
    from repro.engine.cache import _freeze

    return _freeze(key)


def engine_spec(engine) -> Dict[str, Any]:
    """The serializable description a worker needs to rebuild ``engine``'s
    controller: config, params, controller type and the fingerprint the
    rebuild must reproduce.

    Raises :class:`ProtocolError` for engines whose config cannot cross
    the wire (duck-typed mocks without ``to_dict``) — callers treat that
    as "not remotable" and fall back to local execution.
    """
    config = engine.config
    if not hasattr(config, "to_dict"):
        raise ProtocolError(
            f"engine config {type(config).__name__} has no to_dict(); "
            f"only real SimulatorConfigs can be shipped to fleet workers"
        )
    return {
        "fingerprint": engine.fingerprint,
        "controller_type": str(
            getattr(config.controller_type, "value", config.controller_type)
        ),
        "config": config.to_dict(),
        "params": asdict(engine.params),
        "functional": bool(engine.functional),
    }


def rebuild_controller(spec: Dict[str, Any]):
    """(controller, params, functional) rebuilt from an engine spec.

    The controller class is resolved through the registry and the
    fingerprint recomputed; a mismatch (version skew, foreign controller
    registration) raises :class:`ProtocolError` rather than silently
    producing stats under the wrong cache identity.
    """
    from repro.engine.evaluation import fingerprint_config
    from repro.stonne.config import SimulatorConfig
    from repro.stonne.controller import controller_class

    try:
        config = SimulatorConfig.from_dict(spec["config"])
        params = CycleModelParams(**spec["params"])
        cls = controller_class(spec["controller_type"])
    except (KeyError, TypeError, ReproError) as exc:
        raise ProtocolError(f"cannot rebuild engine spec: {exc}") from exc
    fingerprint = fingerprint_config(config, params, cls)
    if fingerprint != spec.get("fingerprint"):
        raise ProtocolError(
            f"engine fingerprint mismatch: client sent "
            f"{spec.get('fingerprint')!r}, worker rebuilt {fingerprint!r} "
            f"(version or registration skew between fleet peers)"
        )
    return cls(config, params), params, bool(spec.get("functional", False))


# ----------------------------------------------------------------------
# shared-secret authentication
# ----------------------------------------------------------------------
#: The only auth scheme the protocol speaks today (TLS is the follow-on).
AUTH_SCHEME = "hmac-sha256"


def make_nonce() -> str:
    """A fresh per-connection challenge nonce."""
    return secrets.token_hex(16)


def auth_digest(secret: str, nonce: str) -> str:
    """``HMAC-SHA256(secret, nonce)`` — what an ``auth`` frame carries.

    The secret never crosses the wire; a passive observer of one
    handshake cannot replay it against a different nonce.
    """
    return hmac.new(
        secret.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def auth_message(secret: str, nonce: str) -> Dict[str, Any]:
    """The client's answer to a hello's ``auth`` challenge."""
    return {"type": "auth", "digest": auth_digest(secret, nonce)}


def verify_auth(secret: str, nonce: str, message: Dict[str, Any]) -> bool:
    """Constant-time check of an ``auth`` frame against the challenge."""
    digest = message.get("digest")
    if message.get("type") != "auth" or not isinstance(digest, str):
        return False
    return hmac.compare_digest(digest, auth_digest(secret, nonce))


# ----------------------------------------------------------------------
# message builders
# ----------------------------------------------------------------------
def hello_message(
    capabilities: List[str],
    pid: int,
    capacity: int = 1,
    nonce: Optional[str] = None,
) -> Dict[str, Any]:
    """The worker's greeting.  ``capacity`` is its advertised weight —
    how many concurrent units the operator sized it for — which the
    remote backend turns into that many pull-scheduler slots; absent
    (older workers) it defaults to 1 on the client side.  ``nonce``
    (secured daemons only) attaches the shared-secret auth challenge
    the client must answer before anything else."""
    message = {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "pid": pid,
        "capabilities": sorted(capabilities),
        "capacity": int(capacity),
    }
    if nonce is not None:
        message["auth"] = {"scheme": AUTH_SCHEME, "nonce": nonce}
    return message


def evaluate_batch_message(
    spec: Dict[str, Any],
    items: List[Tuple[int, Optional[Hashable], Any, Any]],
) -> Dict[str, Any]:
    """An ``evaluate_batch`` request for (pos, key, layer, mapping) items."""
    return {
        "type": "evaluate_batch",
        "version": PROTOCOL_VERSION,
        "spec": spec,
        "items": [
            {
                "pos": pos,
                "key": key,
                "layer": layer_to_wire(layer),
                "mapping": mapping_to_wire(mapping),
            }
            for pos, key, layer, mapping in items
        ],
    }


def results_message(
    entries: List[Dict[str, Any]],
    timing: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A batch result; ``timing`` optionally carries worker-side
    observability (pid, duration, cache hits).  It rides as an extra
    key old clients ignore and old workers simply omit — version skew
    in either direction degrades to "no remote spans", never an error.
    """
    message = {"type": "results", "items": entries}
    if timing is not None:
        message["timing"] = timing
    return message


def error_message(error: Exception) -> Dict[str, Any]:
    """A batch-fatal error response (spec rebuild failures etc.)."""
    return {
        "type": "error",
        "error": str(error),
        "error_type": type(error).__name__,
    }


# ----------------------------------------------------------------------
# sweep-service vocabulary (repro.serve)
# ----------------------------------------------------------------------
def plan_to_wire(plan) -> Dict[str, Any]:
    """Serialize a :class:`~repro.sweep.SweepPlan` for submission.

    Everything a scenario carries is structural (resolved config dict,
    zoo model name, kind, labels) *except* ``target`` — a bare in-memory
    layer descriptor standing in for (model, layer) — which cannot be
    archived or resubmitted and therefore cannot cross the wire.

    Only the *result-determining* config sections cross the wire
    (:func:`~repro.sweep.resume.result_config`: architecture, the
    functional flag, tuning).  Environmental sections stay client-side —
    the daemon runs every job against its own executor, cache and fleet,
    and ``fleet.secret`` in particular must never ride a frame: shipping
    it would hand the shared secret to any passive observer and defeat
    the challenge-response design.
    """
    from repro.sweep.resume import result_config

    scenarios = []
    for scenario in plan.scenarios:
        if scenario.target is not None:
            raise ProtocolError(
                f"scenario {scenario.name!r} carries a bare layer target; "
                f"only zoo-model scenarios can be submitted to a sweep "
                f"service"
            )
        scenarios.append(
            {
                "name": scenario.name,
                "config": result_config(scenario.config),
                "model": scenario.model,
                "kind": scenario.kind,
                "layer": scenario.layer,
                "profile": scenario.profile,
                "overrides": [
                    [key, value] for key, value in scenario.overrides
                ],
            }
        )
    return {"scenarios": scenarios}


def plan_from_wire(data: Dict[str, Any]):
    """Rebuild a validated :class:`~repro.sweep.SweepPlan` from its wire
    form (bad configs, kinds or models raise :class:`ProtocolError`)."""
    from repro.session.config import SessionConfig
    from repro.sweep.plan import Scenario, SweepPlan

    try:
        scenarios = tuple(
            Scenario(
                name=entry["name"],
                config=SessionConfig.from_dict(entry["config"]),
                model=entry.get("model"),
                kind=entry.get("kind", "run"),
                layer=entry.get("layer"),
                profile=entry.get("profile"),
                overrides=tuple(
                    (key, value)
                    for key, value in entry.get("overrides", [])
                ),
            )
            for entry in data.get("scenarios", [])
        )
        return SweepPlan(scenarios=scenarios)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise ProtocolError(f"malformed wire sweep plan: {exc}") from exc


def submit_message(
    plan_wire: Dict[str, Any],
    resume: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """A ``submit_sweep`` request.  ``resume`` is an archived
    SweepReport dict — the service skips scenarios whose resolved-config
    hash matches it and folds the archived results into the job's
    report."""
    message: Dict[str, Any] = {
        "type": "submit_sweep",
        "version": PROTOCOL_VERSION,
        "plan": plan_wire,
    }
    if resume is not None:
        message["resume"] = resume
    if label is not None:
        message["label"] = label
    return message


def job_request_message(kind: str, job_id: str) -> Dict[str, Any]:
    """One of the per-job requests: ``job_status`` / ``job_result`` /
    ``job_cancel`` / ``job_watch``."""
    return {"type": kind, "id": job_id}


def job_message(job: Dict[str, Any]) -> Dict[str, Any]:
    """The service's reply describing one job's current state."""
    return {"type": "job", "job": job}


def jobs_message(jobs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``job_list`` reply: every job the service knows, in
    submission order."""
    return {"type": "jobs", "jobs": jobs}


def job_result_message(
    job: Dict[str, Any], report: Dict[str, Any]
) -> Dict[str, Any]:
    """A finished job's archived report (the ``job_result`` reply)."""
    return {"type": "job_result", "job": job, "report": report}


def progress_message(job_id: str, event: Dict[str, Any]) -> Dict[str, Any]:
    """One streamed scenario-level progress event for a watched job."""
    return {"type": "progress", "id": job_id, "event": event}


def exception_from_wire(entry: Dict[str, Any]) -> Exception:
    """Rebuild a worker-side exception from its wire form.

    Known :mod:`repro.errors` classes round-trip by name so callers'
    ``isinstance`` checks (e.g. the tuner pricing ``MappingError`` as an
    invalid config) behave exactly as with local execution; anything
    else degrades to :class:`SimulationError`.
    """
    import repro.errors as errors_module

    name = entry.get("error_type", "")
    message = entry.get("error", "remote evaluation failed")
    cls = getattr(errors_module, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return SimulationError(f"remote worker error ({name}): {message}")
