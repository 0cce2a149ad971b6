"""The ``remote`` executor backend: pull scheduler slots on fleet workers.

:class:`RemoteBackend` is an :class:`~repro.engine.backends.ExecutorBackend`
registered as ``"remote"``, so the whole existing measurement path —
``Tuner.tune`` → ``TuningTask.measure_batch`` →
``EvaluationEngine.evaluate_many`` — spreads a GA generation across
machines with zero changes to the tuner: the engine still splits hits
from misses, and only the misses travel.

Execution model:

* every reachable worker (``host:port`` addresses — constructor
  argument, CLI ``--workers``, or the ``REPRO_FLEET_WORKERS``
  environment variable) contributes one pull-scheduler slot per
  advertised capacity unit, and each slot ships the chunks it pulls
  over a persistent connection (the hello handshake is paid once per
  worker, controller rebuilds once per engine fingerprint per worker);
* a chunk whose worker dies mid-request is *retried* on the surviving
  workers, so one crash costs one round trip, not the sweep;
* when no worker is reachable — or the engine is not remotable (mock
  configs) — the backend offers one fallback slot whose chunks run
  inline, so ``--executor remote`` degrades to ``--executor serial``
  instead of failing a run.

Per-item errors (invalid mappings and friends) are captured exception
entries, exactly like every other backend; worker-side
:mod:`repro.errors` types round-trip by name so callers' ``isinstance``
checks keep working across the wire.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.backends import (
    ExecutorBackend,
    WorkItem,
    WorkResult,
    _simulate_item,
    register_backend,
)
from repro.fleet import protocol
from repro.fleet.worker import parse_address
from repro.obs.trace import TRACER

#: Environment variable naming the default worker pool
#: (comma-separated ``host:port`` list).
WORKERS_ENV = "REPRO_FLEET_WORKERS"

#: Seconds to wait for a worker connection before declaring it dead.
CONNECT_TIMEOUT_S = 5.0

#: Default seconds to wait for a chunk's results (the
#: ``fleet.shard_timeout`` config knob overrides it).  Generous: this
#: bound only catches hung peers, not slow ones — the *scheduler's*
#: ``engine.steal_deadline`` (seconds, much shorter) is what re-splits a
#: slow worker's chunk onto idle peers, so this timeout only has to
#: catch connections that are truly wedged.
BATCH_TIMEOUT_S = 600.0


def _env_workers() -> List[str]:
    raw = os.environ.get(WORKERS_ENV, "")
    return [part.strip() for part in raw.split(",") if part.strip()]


class _WorkerLink:
    """One persistent connection to one worker, used by one client thread
    at a time (the per-link lock covers retries landing on a survivor
    that is mid-chunk)."""

    def __init__(
        self,
        address: str,
        timeout: Optional[float] = None,
        secret: Optional[str] = None,
    ) -> None:
        self.address = address
        self.host, self.port = parse_address(address)
        self.timeout = timeout if timeout is not None else BATCH_TIMEOUT_S
        self.secret = secret or None
        self.lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self.hello: Optional[dict] = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=CONNECT_TIMEOUT_S
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.timeout)
            hello = protocol.recv_message(sock)
            if not hello or hello.get("type") != "hello":
                sock.close()
                raise protocol.ProtocolError(
                    f"worker {self.address} did not say hello"
                )
            if hello.get("version") != protocol.PROTOCOL_VERSION:
                sock.close()
                raise protocol.ProtocolError(
                    f"worker {self.address} speaks protocol version "
                    f"{hello.get('version')}, client speaks "
                    f"{protocol.PROTOCOL_VERSION}"
                )
            try:
                self._authenticate(sock, hello)
            except protocol.ProtocolError:
                sock.close()
                raise
            self.hello = hello
            self._sock = sock
        return self._sock

    def _authenticate(self, sock: socket.socket, hello: dict) -> None:
        """Answer the hello's HMAC challenge, if it carries one.

        An unsecured worker (no challenge) is always accepted — the
        secret is opt-in per daemon.  A secured worker with no local
        secret, or one that rejects the digest, raises
        :class:`~repro.fleet.protocol.ProtocolError` before the link is
        considered connected.
        """
        challenge = hello.get("auth")
        if not isinstance(challenge, dict):
            return
        nonce = challenge.get("nonce")
        if not isinstance(nonce, str):
            return
        if not self.secret:
            raise protocol.ProtocolError(
                f"worker {self.address} requires a shared secret; set "
                f"fleet.secret (or REPRO_FLEET_SECRET)"
            )
        protocol.send_message(
            sock, protocol.auth_message(self.secret, nonce)
        )
        answer = protocol.recv_message(sock)
        if not answer or answer.get("type") != "auth_ok":
            raise protocol.ProtocolError(
                f"worker {self.address} rejected the shared secret"
            )

    def ensure_connected(self) -> Optional[dict]:
        """Connect (if needed) and return the worker's hello, or None
        when the worker is unreachable."""
        with self.lock:
            try:
                self._connect()
            except (OSError, protocol.ProtocolError):
                self.drop()
                return None
            return self.hello

    @property
    def capacity(self) -> int:
        """The worker's advertised weight (1 for pre-capacity workers)."""
        hello = self.hello or {}
        try:
            return max(1, int(hello.get("capacity", 1)))
        except (TypeError, ValueError):
            return 1

    def request(self, message: dict) -> dict:
        """One request/response round trip (connecting if needed)."""
        with self.lock:
            sock = self._connect()
            try:
                protocol.send_message(sock, message)
                response = protocol.recv_message(sock)
            except (OSError, protocol.ProtocolError):
                self.drop()
                raise
            if response is None:
                self.drop()
                raise protocol.ProtocolError(
                    f"worker {self.address} closed the connection mid-request"
                )
            return response

    def drop(self) -> None:
        """Forget the connection (next request reconnects or fails)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self.hello = None

    def close(self) -> None:
        with self.lock:
            if self._sock is not None:
                try:
                    protocol.send_message(self._sock, {"type": "bye"})
                except (OSError, protocol.ProtocolError):
                    pass
            self.drop()


@register_backend("remote")
class RemoteBackend(ExecutorBackend):
    """Ship scheduler chunks to fleet workers over the wire protocol.

    Args:
        workers: ``host:port`` addresses.  When omitted, resolved from
            the :data:`WORKERS_ENV` environment variable at run time, so
            a sweep script can be pointed at a fleet without code
            changes.
        max_workers: Accepted for registry-constructor uniformity;
            parallelism is one scheduler slot per capacity unit of each
            reachable worker.
        shard_timeout: Seconds to wait for one chunk's results before
            declaring the connection dead (the ``fleet.shard_timeout``
            knob); defaults to :data:`BATCH_TIMEOUT_S`.  Orthogonal to
            the scheduler's ``engine.steal_deadline``: the deadline
            re-splits a *slow* worker's chunk onto idle peers (seconds),
            the timeout abandons a *wedged* connection (minutes).
    """

    name = "remote"

    def __init__(
        self,
        workers: Union[Sequence[str], str, None] = None,
        max_workers: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        secret: Optional[str] = None,
    ) -> None:
        if isinstance(workers, str):
            workers = [part.strip() for part in workers.split(",") if part.strip()]
        self._configured = list(workers) if workers else None
        self.max_workers = max_workers
        self.shard_timeout = shard_timeout
        self.secret = secret or None
        self._links: Dict[str, _WorkerLink] = {}
        self._links_lock = threading.Lock()
        #: Chunks that fell back to inline serial execution.
        self.fallback_batches = 0
        #: Chunks retried on a surviving worker after a peer died.
        self.retried_shards = 0

    # ------------------------------------------------------------------
    def _addresses(self) -> List[str]:
        return list(self._configured) if self._configured else _env_workers()

    def _link(self, address: str) -> _WorkerLink:
        with self._links_lock:
            link = self._links.get(address)
            if link is None:
                link = _WorkerLink(
                    address, timeout=self.shard_timeout, secret=self.secret
                )
                self._links[address] = link
            return link

    def _capacities(self, addresses: List[str]) -> Dict[str, int]:
        """Advertised capacity per *reachable* address (probed now)."""
        capacities: Dict[str, int] = {}
        for address in addresses:
            link = self._link(address)
            if link.ensure_connected() is not None:
                capacities[address] = link.capacity
        return capacities

    # ------------------------------------------------------------------
    def pull_slots(self, engine, max_workers=None):
        """One scheduler slot per advertised capacity unit per reachable
        worker — ``(address, unit)`` tokens.  A single fallback slot when
        the engine is not remotable or no worker answers: its chunks
        still try every worker in :meth:`run_chunk`, then run inline."""
        addresses = self._addresses()
        if not addresses:
            return [0]
        try:
            protocol.engine_spec(engine)
        except protocol.ProtocolError:
            return [0]
        capacities = self._capacities(addresses)
        slots = [
            (address, unit)
            for address in addresses
            for unit in range(capacities.get(address, 0))
        ]
        return slots or [0]

    def run_chunk(self, engine, items, slot=None):
        """Execute one scheduler chunk on the slot's worker.

        Retries on survivors, then falls back to inline serial
        execution, so a worker crash mid-chunk costs one round trip.
        The fallback slot prefers the first configured worker.
        """
        addresses = self._addresses()
        try:
            spec = protocol.engine_spec(engine)
        except protocol.ProtocolError:
            spec = None
        if not addresses or spec is None:
            self.fallback_batches += 1
            return [_simulate_item(engine, item) for item in items]
        indexed = [
            (position, key, request.layer, request.mapping)
            for position, (key, request) in enumerate(items)
        ]
        preferred = slot[0] if isinstance(slot, tuple) else addresses[0]
        results: List[Optional[WorkResult]] = [None] * len(items)
        for position, result in self._run_shard(
            engine, spec, indexed, preferred=preferred, all_addresses=addresses
        ):
            results[position] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        engine,
        spec: dict,
        shard: List[Tuple],
        preferred: str,
        all_addresses: List[str],
    ) -> List[Tuple[int, WorkResult]]:
        """Execute one chunk: preferred worker, then survivors, then inline.

        Returns (position, (key, stats-or-exception)) pairs.
        """
        by_pos = {position: (key, layer, mapping)
                  for position, key, layer, mapping in shard}
        candidates = [preferred] + [a for a in all_addresses if a != preferred]
        message = protocol.evaluate_batch_message(spec, shard)
        registry = self.metrics
        with TRACER.span(
            "fleet.shard", category="fleet",
            lane=f"fleet-{preferred}", items=len(shard),
        ) as span:
            for attempt, address in enumerate(candidates):
                try:
                    response = self._link(address).request(message)
                except (OSError, protocol.ProtocolError):
                    registry.counter(f"fleet.errors.{address}").inc()
                    continue  # worker dead/unreachable; try a survivor
                if response.get("type") == "error":
                    # Batch-fatal worker refusal (fingerprint/spec skew):
                    # retrying elsewhere cannot help less, but inline can.
                    break
                if response.get("type") != "results":
                    continue
                if attempt > 0:
                    self.retried_shards += 1
                    registry.counter("fleet.retried_shards").inc()
                span.set(served_by=address)
                registry.counter(f"fleet.shards.{address}").inc()
                registry.counter(f"fleet.items.{address}").inc(len(shard))
                self._record_worker_timing(address, response, registry)
                return self._decode_results(engine, response, by_pos)
            span.set(fallback=True)
        # No worker produced results: inline serial fallback.
        self.fallback_batches += 1
        registry.counter("fleet.fallback_batches").inc()
        return _simulate_inline(engine, by_pos, sorted(by_pos))

    def _record_worker_timing(self, address, response, registry) -> None:
        """Absorb a worker's self-reported ``timing`` (optional key).

        Old workers omit it — version skew degrades to "no remote
        spans, no per-worker health", never an error.  The worker's
        clock is not synchronised with ours, so its span is
        right-aligned inside the just-finished local round trip.
        """
        timing = response.get("timing")
        if not isinstance(timing, dict):
            return
        try:
            duration = float(timing.get("duration_s", 0.0))
        except (TypeError, ValueError):
            return
        registry.histogram("fleet.worker_duration_s").observe(duration)
        for key in ("cache_hits", "simulated"):
            value = timing.get(key)
            if isinstance(value, int):
                registry.counter(f"fleet.{key}.{address}").inc(value)
        pid = timing.get("pid")
        if isinstance(pid, int):
            registry.gauge(f"fleet.pid.{address}").set(pid)
        if TRACER.enabled:
            client_end = time.perf_counter()
            TRACER.add_span(
                "fleet.worker", "fleet", f"fleet-{address}",
                start=client_end - duration, duration=duration,
                attrs=dict(timing, address=address),
            )

    @staticmethod
    def _decode_results(engine, response: dict, by_pos: dict):
        from repro.stonne.stats import SimulationStats

        out: List[Tuple[int, WorkResult]] = []
        seen = set()
        for entry in response.get("items", []):
            position = entry.get("pos")
            if position not in by_pos or position in seen:
                continue  # unknown or duplicate position: ignore
            key = by_pos[position][0]
            if "stats" in entry:
                try:
                    stats = SimulationStats.from_dict(entry["stats"])
                except (KeyError, TypeError, ValueError):
                    continue  # undecodable entry: leave it for the
                    # inline remainder pass below (skewed peer)
                seen.add(position)
                out.append((position, (key, stats)))
            else:
                seen.add(position)
                out.append(
                    (position, (key, protocol.exception_from_wire(entry)))
                )
        # A worker that dropped items (foreign/buggy peer) still owes the
        # engine answers: simulate the remainder inline.
        out.extend(_simulate_inline(engine, by_pos, sorted(set(by_pos) - seen)))
        return out

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, bool]:
        """Reachability of every configured worker (health checks)."""
        status: Dict[str, bool] = {}
        for address in self._addresses():
            try:
                response = self._link(address).request({"type": "ping"})
                status[address] = response.get("type") == "pong"
            except (OSError, protocol.ProtocolError):
                status[address] = False
        return status

    def close(self) -> None:
        with self._links_lock:
            for link in self._links.values():
                link.close()
            self._links.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteBackend(workers={self._addresses()!r})"


def resolve_executor(
    executor,
    workers: Union[Sequence[str], str, None] = None,
    max_workers: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    secret: Optional[str] = None,
):
    """The executor an engine should use given an optional fleet.

    A non-empty ``workers`` list (or comma-separated string) implies the
    remote backend unless a *different* executor is explicitly named.
    :class:`repro.session.Session` applies this rule to ``fleet.workers``,
    however it was set (``--workers``, ``REPRO_FLEET_WORKERS``, a file).
    """
    if workers and executor in (None, "remote"):
        return RemoteBackend(
            workers=workers,
            max_workers=max_workers,
            shard_timeout=shard_timeout,
            secret=secret,
        )
    return executor


def _simulate_inline(
    engine, by_pos: dict, positions: Sequence[int]
) -> List[Tuple[int, WorkResult]]:
    """Simulate ``positions`` of a chunk in the calling thread."""
    # Imported here: repro.engine imports this module while it is still
    # initialising, before EvalRequest exists.
    from repro.engine import EvalRequest

    out: List[Tuple[int, WorkResult]] = []
    for position in positions:
        key, layer, mapping = by_pos[position]
        out.append(
            (position, _simulate_item(engine, (key, EvalRequest(layer, mapping))))
        )
    return out
