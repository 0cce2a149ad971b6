"""Tests for the persistent cache tiers: SQLite sharing and JSONL compaction.

The headline property of the SQLite tier is *mid-sweep* sharing: two
processes pointed at one ``.sqlite`` file observe each other's inserts
while both are still running — which the JSONL spill (read once at
open) cannot do.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.engine import (
    EvaluationEngine,
    PersistentStatsCache,
    SqliteStatsCache,
    StatsCache,
    make_stats_cache,
)
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer
from repro.stonne.mapping import ConvMapping
from repro.stonne.stats import SimulationStats

CONFIG = maeri_config()


def _stats(cycles=100, name="layer"):
    return SimulationStats(
        layer_name=name,
        controller="maeri",
        cycles=cycles,
        psums=10,
        macs=1000,
        iterations=4,
        multipliers_used=8,
        array_size=128,
        phase_cycles={"fill": 2, "steady": cycles - 2},
    )


KEY = ("fp", "ConvLayer", (1, 2, (3, 4)), "ConvMapping", (1, 1, 1, 1))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    @pytest.mark.parametrize("name", ["c.sqlite", "c.sqlite3", "c.db"])
    def test_sqlite_suffixes(self, tmp_path, name):
        cache = make_stats_cache(tmp_path / name)
        assert isinstance(cache, SqliteStatsCache)
        cache.close()

    @pytest.mark.parametrize("name", ["c.jsonl", "c.cache", "plain"])
    def test_everything_else_is_jsonl(self, tmp_path, name):
        cache = make_stats_cache(tmp_path / name)
        assert isinstance(cache, PersistentStatsCache)
        assert not isinstance(cache, SqliteStatsCache)
        cache.close()


# ----------------------------------------------------------------------
# sqlite tier
# ----------------------------------------------------------------------
class TestSqliteStatsCache:
    def test_round_trip_and_copy_isolation(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            got = cache.get(KEY)
            assert got.to_dict() == _stats().to_dict()
            got.cycles = 1  # mutating the copy must not corrupt the cache
            assert cache.get(KEY).cycles == 100

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as first:
            first.put(KEY, _stats())
        with SqliteStatsCache(path) as second:
            assert second.get(KEY).cycles == 100
            assert second.disk_entries() == 1

    def test_concurrent_instances_see_each_others_inserts(self, tmp_path):
        """Two live caches on one file: an insert through one is a hit
        through the other, with no reopen — the mid-sweep property."""
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as a, SqliteStatsCache(path) as b:
            a.put(("from-a",), _stats(cycles=7))
            b.put(("from-b",), _stats(cycles=9))
            assert b.get(("from-a",)).cycles == 7
            assert a.get(("from-b",)).cycles == 9

    def test_l1_miss_falls_through_and_counts(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as writer:
            writer.put(KEY, _stats())
        with SqliteStatsCache(path) as reader:
            assert reader.get(("absent",)) is None
            assert reader.get(KEY) is not None
            assert (reader.hits, reader.misses) == (1, 1)

    def test_l1_bound_does_not_lose_disk_records(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite", max_entries=2) as cache:
            for i in range(5):
                cache.put((i,), _stats(cycles=i + 1))
            assert len(cache) <= 2  # in-memory L1 respects the bound
            assert cache.disk_entries() == 5
            for i in range(5):  # every record still served (from disk)
                assert cache.get((i,)).cycles == i + 1

    def test_clear_drops_both_tiers(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            cache.clear()
            assert cache.get(KEY) is None
            assert cache.disk_entries() == 0

    def test_compact_reports_live_records(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            cache.put(("other",), _stats())
            assert cache.compact() == (2, 0)

    def test_engine_integration(self, tmp_path):
        """An engine over the sqlite tier: second engine starts warm."""
        path = tmp_path / "c.sqlite"
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        mapping = ConvMapping(T_R=3, T_S=3)
        cold_cache = SqliteStatsCache(path)
        cold = EvaluationEngine(CONFIG, cache=cold_cache)
        first = cold.evaluate(layer, mapping)
        assert cold.num_simulations == 1
        cold_cache.close()

        warm_cache = SqliteStatsCache(path)
        warm = EvaluationEngine(CONFIG, cache=warm_cache)
        second = warm.evaluate(layer, mapping)
        assert warm.num_simulations == 0  # served from the shared tier
        assert second.to_dict() == first.to_dict()
        warm_cache.close()


_WRITER_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    from repro.engine import SqliteStatsCache
    from repro.stonne.stats import SimulationStats

    path, mine, theirs, count = sys.argv[1:5]
    count = int(count)
    stats = SimulationStats(
        layer_name="l", controller="maeri", cycles=1, psums=1, macs=1,
        iterations=1, multipliers_used=1, array_size=128,
    )
    cache = SqliteStatsCache(path)
    for i in range(count):
        cache.put((mine, i), stats)
    # Wait (bounded) until every record of the *other* process is
    # visible through this live cache instance: mid-sweep sharing.
    deadline = time.monotonic() + 30
    seen = 0
    while time.monotonic() < deadline:
        seen = sum(
            1 for i in range(count) if cache.get((theirs, i)) is not None
        )
        if seen == count:
            break
        time.sleep(0.05)
    cache.close()
    print(json.dumps({"seen": seen}))
    sys.exit(0 if seen == count else 1)
    """
)


class TestCorruptSqliteFile:
    """A junk or truncated ``.sqlite`` path is bad configuration: one
    ConfigError naming the file, no sqlite3 traceback, no leaked
    connection."""

    @pytest.fixture(params=["junk", "truncated"])
    def corrupt_path(self, request, tmp_path):
        path = tmp_path / f"{request.param}.sqlite"
        if request.param == "junk":
            path.write_bytes(bytes(range(200, 230)))  # 30 junk bytes
        else:
            real = tmp_path / "real.sqlite"
            with SqliteStatsCache(real) as cache:
                for i in range(200):
                    cache.put(("k", i), _stats(cycles=i))
            assert real.stat().st_size > 3000
            path.write_bytes(real.read_bytes()[:3000])
        return path

    def test_session_raises_config_error(self, corrupt_path, monkeypatch):
        import sqlite3

        from repro.errors import ConfigError
        from repro.session import Session

        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording_connect)
        with pytest.raises(ConfigError, match=corrupt_path.name):
            Session(cache_path=str(corrupt_path))
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")

    def test_cli_prints_one_error_line(self, corrupt_path, capsys):
        from repro.cli import main

        argv = ["run", "lenet", "--cache-path", str(corrupt_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(corrupt_path) in err


def test_two_processes_share_one_sqlite_cache(tmp_path):
    """Acceptance criterion: two concurrent *processes* sharing one
    SqliteStatsCache each observe the other's inserts within the same
    sweep (neither reopens the file)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = str(tmp_path / "shared.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    count = "25"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, path, mine, theirs, count],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for mine, theirs in (("alpha", "beta"), ("beta", "alpha"))
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"writer failed: {err}\n{out}"
        assert json.loads(out)["seen"] == int(count)


# ----------------------------------------------------------------------
# JSONL compaction
# ----------------------------------------------------------------------
class TestCompact:
    def test_dedup_last_write_wins(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats(cycles=100))
        # A second process appending a newer record for the same key.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"key": KEY, "stats": _stats(cycles=777).to_dict()})
                + "\n"
            )
        with PersistentStatsCache(path) as cache:
            assert cache.compact() == (1, 1)
            assert cache.get(KEY).cycles == 777  # the *last* record survived
        assert len(path.read_text().strip().splitlines()) == 1

    def test_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": [1], "stats"')  # crashed mid-append
        with PersistentStatsCache(path) as cache:
            assert cache.compact() == (1, 1)

    def test_appends_keep_working_after_compact(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
            cache.compact()
            cache.put(("post-compact",), _stats(cycles=5))
        with PersistentStatsCache(path) as reopened:
            assert reopened.warm_entries == 2
            assert reopened.get(("post-compact",)).cycles == 5

    def test_compact_empty_cache(self, tmp_path):
        with PersistentStatsCache(tmp_path / "spill.jsonl") as cache:
            assert cache.compact() == (0, 0)

    def test_cli_compact_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert main(["cache", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 live" in out and "1 superseded" in out

    def test_cli_compact_missing_path_errors(self, tmp_path, capsys):
        """A typo'd path must error, not create an empty cache file."""
        from repro.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main(["cache", "compact", str(missing)]) == 2
        assert "no cache file" in capsys.readouterr().err
        assert not missing.exists()

    def test_cli_compact_sqlite(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as cache:
            cache.put(KEY, _stats())
        assert main(["cache", "compact", str(path)]) == 0
        assert "1 live" in capsys.readouterr().out


# ----------------------------------------------------------------------
# sqlite LRU eviction (row-count cap)
# ----------------------------------------------------------------------
def _key(i):
    return ("fp", "ConvLayer", (i,), None, None)


class TestSqliteEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = SqliteStatsCache(tmp_path / "e.sqlite")
        for i in range(50):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 50
        assert cache.evictions == 0
        cache.close()

    def test_cap_evicts_least_recently_accessed(self, tmp_path):
        # L1 of 1 forces every get through the database tier, so the
        # shared tier's accessed_at stamps track real access order.
        cache = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1,
                                 max_rows=3)
        for i in range(3):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.get(_key(0)) is not None  # refresh key 0
        cache.put(_key(3), _stats(cycles=4))   # evicts key 1 (oldest)
        assert cache.disk_entries() == 3
        assert cache.evictions == 1
        db = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1)
        assert db.get(_key(1)) is None
        assert db.get(_key(0)) is not None
        assert db.get(_key(2)) is not None
        assert db.get(_key(3)) is not None
        db.close()
        cache.close()

    def test_fresh_write_never_evicts_itself(self, tmp_path):
        cache = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1,
                                 max_rows=1)
        for i in range(5):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 1
        db = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1)
        assert db.get(_key(4)) is not None
        db.close()
        cache.close()

    def test_pre_eviction_database_migrates(self, tmp_path):
        # A database created before the accessed_at column existed must
        # open, gain the column, and participate in eviction.
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE stats (key TEXT PRIMARY KEY, stats TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO stats (key, stats) VALUES (?, ?)",
            (json.dumps(list(_key(0)), default=str),
             json.dumps(_stats(cycles=7).to_dict())),
        )
        conn.commit()
        conn.close()

        cache = SqliteStatsCache(path, max_entries=1, max_rows=2)
        assert cache.get(_key(0)).cycles == 7  # old record readable
        cache.put(_key(1), _stats(cycles=8))
        cache.put(_key(2), _stats(cycles=9))
        # Access order was 0, 1, 2 — the cap of 2 evicts key 0.
        assert cache.disk_entries() == 2
        db = SqliteStatsCache(path, max_entries=1)
        assert db.get(_key(0)) is None
        assert db.get(_key(2)) is not None
        db.close()
        cache.close()

    def test_invalid_max_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_rows"):
            SqliteStatsCache(tmp_path / "e.sqlite", max_rows=0)

    def test_make_stats_cache_passes_cap(self, tmp_path):
        cache = make_stats_cache(tmp_path / "cap.sqlite", max_rows=2)
        assert cache.max_rows == 2
        for i in range(4):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 2
        cache.close()
        # The JSONL tier has no row cap (append-only history); the
        # argument must not break its construction.
        jsonl = make_stats_cache(tmp_path / "cap.jsonl", max_rows=2)
        assert not hasattr(jsonl, "max_rows")
        jsonl.close()

    def test_engine_sweep_respects_cap(self, tmp_path):
        cache = make_stats_cache(tmp_path / "sweep.sqlite", max_rows=2)
        engine = EvaluationEngine(CONFIG, cache=cache)
        layers = [
            ConvLayer(name=f"c{i}", C=1, H=4 + i, W=4 + i, K=1, R=2, S=2)
            for i in range(4)
        ]
        for layer in layers:
            engine.evaluate(layer, ConvMapping.basic())
        assert cache.disk_entries() == 2
        engine.close()
        cache.close()

    def test_uncapped_gets_are_read_only(self, tmp_path):
        # Without a row cap, gets must not write: no writer lock, no WAL
        # growth, and eviction never consults the stamp anyway.
        import sqlite3

        path = tmp_path / "ro.sqlite"
        writer = SqliteStatsCache(path)
        writer.put(_key(0), _stats(cycles=5))
        writer.close()

        reader = SqliteStatsCache(path, max_entries=1)
        assert reader.get(_key(0)) is not None
        reader.close()
        conn = sqlite3.connect(str(path))
        stamp_after_put, = conn.execute(
            "SELECT accessed_at FROM stats").fetchone()
        conn.close()
        assert stamp_after_put == 1  # the put's stamp; the get added none

    def test_l1_hits_refresh_shared_stamp_when_capped(self, tmp_path):
        # A key hot in one process's L1 must still look hot to the
        # shared tier, or other processes' eviction would drop it.
        cache = SqliteStatsCache(tmp_path / "hot.sqlite", max_rows=8)
        cache.put(_key(0), _stats(cycles=1))
        cache.put(_key(1), _stats(cycles=2))
        for _ in range(3):
            assert cache.get(_key(0)) is not None  # L1 hits after first
        stamps = dict(cache._conn.execute(
            "SELECT key, accessed_at FROM stats"))
        cache.close()
        assert stamps[json.dumps(list(_key(0)))] > stamps[
            json.dumps(list(_key(1)))]
