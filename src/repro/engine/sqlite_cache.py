"""The shared SQLite stats-cache tier (WAL mode, fleet-safe).

:class:`~repro.engine.cache.PersistentStatsCache` makes measurement
history durable, but its JSONL spill is read once at open: two processes
sharing one file only see each other's records across *runs*.  A fleet
sweeping one design space wants more — when worker A measures a
configuration, worker B should skip it *in the same sweep*.

:class:`SqliteStatsCache` provides that: the in-memory LRU is a private
L1, and every L1 miss falls through to a shared SQLite database opened in
WAL mode (concurrent readers never block the single writer; writers
queue on the file lock with a busy timeout).  Keys are the same
content-addressed tuples as every other tier, serialized to canonical
JSON text; values round-trip through
:meth:`~repro.stonne.stats.SimulationStats.to_dict`.  Records are
deterministic functions of their key, so ``INSERT OR REPLACE`` races
between writers are harmless — both sides write identical bytes.

Writes are batched: the engine stores each merged chunk of simulation
results with one :meth:`SqliteStatsCache.put_many`, which is one
transaction and one commit.  A sweep interrupted mid-chunk therefore
loses at most that chunk's writes; ``repro sweep --resume`` (or any
rerun) simulates them again.

Select it by extension: :func:`repro.engine.cache.make_stats_cache`
returns this class for ``.sqlite``/``.sqlite3``/``.db`` paths and the
JSONL tier otherwise, which is what the CLI's ``--cache-path`` does.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Hashable, Iterable, Optional, Tuple, Union

from repro.engine.cache import DEFAULT_MAX_ENTRIES, StatsCache, _freeze
from repro.errors import ConfigError
from repro.obs.trace import TRACER
from repro.stonne.stats import SimulationStats

#: Seconds a writer waits on a locked database before giving up.
BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS stats (
    key         TEXT PRIMARY KEY,
    stats       TEXT NOT NULL,
    accessed_at REAL NOT NULL DEFAULT 0
)
"""

_ACCESS_INDEX = (
    "CREATE INDEX IF NOT EXISTS stats_accessed_at ON stats (accessed_at)"
)


def encode_key(key: Hashable) -> str:
    """Canonical JSON text of a content-addressed cache key.

    Keys are tuples of scalars and nested tuples (see
    :func:`repro.engine.evaluation.evaluation_key`); tuples serialize as
    JSON arrays, deterministically, so the text form is itself
    content-addressed.
    """
    return json.dumps(key, default=str)


def decode_key(text: str) -> Hashable:
    """Invert :func:`encode_key` (JSON arrays frozen back to tuples)."""
    return _freeze(json.loads(text))


class SqliteStatsCache(StatsCache):
    """A :class:`StatsCache` backed by a shared WAL-mode SQLite database.

    The in-memory LRU is a per-process L1; the database is the shared
    tier.  ``get`` consults L1 first and falls through to the database on
    a miss, so inserts from *other* processes become visible mid-sweep
    without any refresh protocol.  ``put_many`` writes a batch (the
    engine's merged chunk) to both tiers as one transaction, committed
    before it returns; ``put`` is a batch of one.  Other processes see a
    chunk's rows together once it commits, and an interrupted sweep
    loses at most the chunk in flight, which ``--resume`` re-simulates.

    The shared tier grows without bound by default; ``max_rows`` caps it
    with LRU eviction: with a cap set, every get and put stamps the
    row's ``accessed_at`` column (a shared logical clock), and a put
    that pushes the row count past the cap deletes the least recently
    accessed overflow.  Without a cap, gets stay read-only — stamping
    would turn every shared-tier read into a write transaction for a
    column eviction never consults.  Databases created before the
    column existed are migrated in place on open.

    Args:
        path: The database file; created (with parents) when missing.
            A file that is not a readable SQLite database raises
            :class:`~repro.errors.ConfigError`.
        max_entries: L1 LRU bound, as for :class:`StatsCache`.
        max_rows: Row-count cap for the shared database tier; ``None``
            (the default) keeps the historical unbounded behaviour.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_rows: Optional[int] = None,
    ) -> None:
        super().__init__(max_entries=max_entries)
        if max_rows is not None and max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = max_rows
        # ``hits`` (inherited) stays the total; these split it by tier so
        # a shared-database fallthrough is distinguishable from an L1 hit.
        self.l1_hits = 0
        self.db_hits = 0
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One connection per cache instance, shared across the engine's
        # worker threads under the cache lock (SQLite serializes anyway;
        # the lock also protects the LRU and the counters).
        self._conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_S, check_same_thread=False
        )
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._migrate_schema()
            self._conn.execute(_ACCESS_INDEX)
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            # A junk or truncated file: fail as bad configuration, not
            # with a sqlite3 traceback, and leak no connection.
            self._conn.close()
            self._closed = True
            raise ConfigError(
                f"cache file {str(self.path)!r} is not a usable SQLite "
                f"database: {exc}"
            ) from None
        self._closed = False

    def _migrate_schema(self) -> None:
        """Add ``accessed_at`` to databases from before eviction existed.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table,
        so a pre-eviction file still lacks the column; rows it already
        holds start with access time 0 (oldest, evicted first), which is
        the right prior for records nothing has touched since.
        """
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(stats)")
        }
        if "accessed_at" not in columns:
            self._conn.execute(
                "ALTER TABLE stats ADD COLUMN accessed_at REAL NOT NULL DEFAULT 0"
            )

    # ------------------------------------------------------------------
    def _touch(self, encoded: str) -> None:
        """Refresh a row's LRU stamp (cap-enabled caches only).

        The stamp is a shared logical clock (MAX+1), not wall time: it
        is monotone under concurrent writers and immune to clock skew
        between fleet members.  Uncapped caches skip it entirely so
        reads stay read-only — no writer lock, no WAL growth, and
        read-only database files keep working.
        """
        if self.max_rows is None:
            return
        self._conn.execute(
            "UPDATE stats SET accessed_at = "
            "(SELECT MAX(accessed_at) FROM stats) + 1 WHERE key = ?",
            (encoded,),
        )
        self._conn.commit()

    def get(self, key: Hashable) -> Optional[SimulationStats]:
        """L1 first, then the shared database; a database hit warms L1.

        When a row cap is set, *both* hit paths refresh the shared
        ``accessed_at`` stamp — an L1 hit must still count as fleet-wide
        access, or the hottest keys (absorbed by L1 after first read)
        would look cold to every other process's eviction.
        """
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                self._records.move_to_end(key)
                self.hits += 1
                self.l1_hits += 1
                if self.max_rows is not None:  # keep L1 hits encode-free
                    self._touch(encode_key(key))
                return record.clone()
            encoded = encode_key(key)
            row = self._conn.execute(
                "SELECT stats FROM stats WHERE key = ?", (encoded,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self._touch(encoded)
            stats = SimulationStats.from_dict(json.loads(row[0]))
            self._records[key] = stats
            self._records.move_to_end(key)
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)
            self.hits += 1
            self.db_hits += 1
            if TRACER.enabled:
                TRACER.instant(
                    "cache.fallthrough", category="cache", tier="sqlite")
            return stats.clone()

    def put(self, key: Hashable, stats: SimulationStats) -> None:
        """Write both tiers in one transaction; its commit makes the
        record visible to every other process sharing the file."""
        self.put_many(((key, stats),))

    def put_many(
        self, items: Iterable[Tuple[Hashable, SimulationStats]]
    ) -> None:
        """Write every pair to both tiers in one database transaction.

        Same rows, stamps and evictions as that sequence of :meth:`put`
        calls: each row's ``accessed_at`` is ``MAX + 1`` at its own
        insert, so stamps stay distinct and in call order, and the one
        eviction pass at the end drops the rows the per-put passes
        would have (fresh rows always carry the newest stamps).  One
        commit instead of one per row is what makes a merged chunk
        cheap to store.
        """
        items = list(items)
        if not items:
            return
        with TRACER.span("cache.put_many", category="cache",
                         rows=len(items), tier="sqlite"):
            with self._lock:
                for key, stats in items:
                    self._records[key] = stats.clone()
                    self._records.move_to_end(key)
                while len(self._records) > self.max_entries:
                    self._records.popitem(last=False)
                self._conn.executemany(
                    "INSERT OR REPLACE INTO stats (key, stats, accessed_at) "
                    "VALUES (?, ?, (SELECT COALESCE(MAX(accessed_at), 0) + 1 "
                    "FROM stats))",
                    [
                        (encode_key(key),
                         json.dumps(stats.to_dict(), default=str))
                        for key, stats in items
                    ],
                )
                self._evict_overflow()
                self._conn.commit()

    def _evict_overflow(self) -> None:
        """Delete least-recently-accessed rows past ``max_rows``.

        Called under the lock with a transaction open.  The fresh write
        carries the newest stamp, so it can never evict itself; ties on
        ``accessed_at`` (pre-migration rows at 0) break on ``rowid``,
        oldest insert first.
        """
        if self.max_rows is None:
            return
        count = self._conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]
        overflow = count - self.max_rows
        if overflow <= 0:
            return
        self._conn.execute(
            "DELETE FROM stats WHERE key IN ("
            "SELECT key FROM stats ORDER BY accessed_at ASC, rowid ASC "
            "LIMIT ?)",
            (overflow,),
        )
        self.evictions += overflow
        if TRACER.enabled:
            TRACER.instant(
                "cache.evict", category="cache",
                tier="sqlite", count=overflow)

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        if key in self._records:
            return True
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM stats WHERE key = ?", (encode_key(key),)
            ).fetchone()
        return row is not None

    def disk_entries(self) -> int:
        """Number of records in the shared database tier."""
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]

    def clear(self) -> None:
        """Drop both tiers (affects every process sharing the file)."""
        with self._lock:
            self._records.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.l1_hits = 0
            self.db_hits = 0
            self._conn.execute("DELETE FROM stats")
            self._conn.commit()

    def tier_counters(self) -> "Dict[str, int]":
        """Per-tier accounting: L1 hits vs shared-database fallthrough.

        ``l1_hits + db_hits == hits`` — the inherited total is preserved
        so ``hit_rate`` and every existing consumer keep their meaning.
        """
        return {
            "l1_hits": self.l1_hits,
            "db_hits": self.db_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def compact(self) -> Tuple[int, int]:
        """Reclaim free pages (VACUUM).  SQLite keys are primary keys, so
        there are no duplicate records to drop — returns (live, 0) for
        symmetry with :meth:`PersistentStatsCache.compact`."""
        with self._lock:
            live = self._conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]
            self._conn.commit()
            self._conn.execute("VACUUM")
        return live, 0

    def close(self) -> None:
        """Commit and close the database connection (idempotent)."""
        with self._lock:
            if not self._closed:
                self._conn.commit()
                self._conn.close()
                self._closed = True

    def __enter__(self) -> "SqliteStatsCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort close on GC
        try:
            self.close()
        except Exception:
            pass
