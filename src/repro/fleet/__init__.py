"""repro.fleet — the distributed sweep subsystem.

Why this package exists
-----------------------
The paper's headline workload is large design-space exploration: tuning
mapping/configuration spaces over STONNE cycle models, thousands of
simulations per layer.  :mod:`repro.engine` made that loop cached and
batched; its executor backends made it parallel *within* one machine.
This package is the next tier out — the same batch of cache misses, fanned
across machines:

:mod:`repro.fleet.protocol`
    The wire format: length-prefixed JSON frames carrying an engine
    spec (config + params + controller type + fingerprint), structural
    ``(key, layer, mapping)`` items, and per-item stats/error results.
    Truncated and oversized frames raise
    :class:`~repro.fleet.protocol.ProtocolError` instead of yielding
    partial batches.

:mod:`repro.fleet.worker`
    The daemon (``repro worker --listen HOST:PORT``): a threading TCP
    server that rebuilds one controller per engine fingerprint —
    verifying the fingerprint, so fleet version skew fails loudly —
    executes batches, optionally consults/populates a local stats
    cache (the SQLite tier shares it with co-located peers), and
    streams results back.

:mod:`repro.fleet.remote_backend`
    The client: an executor backend registered as ``"remote"``.  The
    pull scheduler gives it one slot per capacity unit of each reachable
    worker; each slot ships its chunks to that worker, a dead worker's
    chunk is retried on survivors, and everything degrades to inline
    serial execution when the fleet is unreachable.  Because it is just another backend,
    ``Tuner.tune → measure_batch → evaluate_many`` distributes a GA
    generation with zero tuner changes — and results stay bit-identical
    to serial execution (the acceptance bar).

Workers and drivers sharing one
:class:`~repro.engine.sqlite_cache.SqliteStatsCache` see each other's
discoveries *mid-sweep*: worker A's measurement is worker B's cache hit
within the same tuning run.
"""

from repro.fleet.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.fleet.remote_backend import RemoteBackend
from repro.fleet.worker import FleetWorker, parse_address, serve, start_worker

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteBackend",
    "FleetWorker",
    "decode_frame",
    "encode_frame",
    "parse_address",
    "serve",
    "start_worker",
]
