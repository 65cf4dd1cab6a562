"""Bounded-store lifecycle: limits, metadata, integrity, TTL, index.

Unit-level coverage for the shard-format-v2 machinery in
:mod:`repro.server.shards` — the chaos suite
(``tests/chaos/test_store_chaos.py``) proves the crash story end to
end; these tests pin the individual contracts it is built from.
"""

import builtins
import hashlib
import json
import multiprocessing
import os

import pytest

from repro.core.exceptions import SolverError
from repro.server.shards import (
    INDEX_LOG_NAME,
    INDEX_NAME,
    ShardedDiskTier,
    StoreLimits,
    canonical_payload_bytes,
    entry_hash,
    make_entry_meta,
    verify_entry,
)
from repro.server.store_gc import run_gc
from repro.service.cache import ResultCache
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.utils.clock import FixedClock, installed

pytestmark = pytest.mark.cache


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _payload(tag: str) -> dict:
    return {"type": "portfolio_result", "tag": tag}


class TestStoreLimits:
    def test_validation(self):
        with pytest.raises(SolverError):
            StoreLimits(max_bytes=0)
        with pytest.raises(SolverError):
            StoreLimits(max_entries=-1)
        with pytest.raises(SolverError):
            StoreLimits(ttl_seconds=0)

    def test_round_trip_and_unknown_fields(self):
        limits = StoreLimits(max_bytes=10, ttl_seconds=5.0)
        assert StoreLimits.from_dict(limits.as_dict()).as_dict() == {
            "max_bytes": 10,
            "max_entries": None,
            "ttl_seconds": 5.0,
        }
        with pytest.raises(SolverError):
            StoreLimits.from_dict({"max_bytez": 10})

    def test_legacy_entries_never_ttl_expire(self):
        limits = StoreLimits(ttl_seconds=1.0)
        assert not limits.expired(None, 1e9)
        assert not limits.expired(0, 1e9)
        assert limits.expired(1.0, 1e9)

    def test_persisted_limits_apply_to_later_openers(self, tmp_path):
        root = tmp_path / "store"
        ShardedDiskTier(root, limits=StoreLimits(max_entries=3))
        reopened = ShardedDiskTier(root)  # no explicit limits
        assert reopened.limits.max_entries == 3

    def test_explicit_limits_overwrite_persisted(self, tmp_path):
        root = tmp_path / "store"
        ShardedDiskTier(root, limits=StoreLimits(max_entries=3))
        ShardedDiskTier(root, limits=StoreLimits(max_entries=9))
        assert ShardedDiskTier(root).limits.max_entries == 9

    def test_corrupt_store_config_degrades_to_unbounded(self, tmp_path):
        root = tmp_path / "store"
        ShardedDiskTier(root, limits=StoreLimits(max_entries=3))
        (root / "store-config.json").write_text("{torn")
        reopened = ShardedDiskTier(root)
        assert reopened.limits.max_entries is None
        assert reopened.quarantined == 1
        assert list(root.glob("store-config.json.corrupt-*"))


class TestEntryIntegrity:
    def test_hash_is_schema_version_keyed(self):
        blob = canonical_payload_bytes({"depth": 3})
        assert entry_hash(blob, 1) != entry_hash(blob, 2)

    def test_verify_uses_stored_schema_version(self):
        # An entry hashed under an older schema era must verify against
        # that era, not the reader's — otherwise every schema bump
        # would quarantine the whole store.
        payload = {"depth": 3}
        old = SOLVER_SCHEMA_VERSION - 1
        meta = {
            "h": entry_hash(canonical_payload_bytes(payload), old),
            "v": old,
        }
        assert verify_entry(payload, meta)

    def test_legacy_meta_passes_trivially(self):
        assert verify_entry({"depth": 3}, {})

    def test_tampered_payload_is_quarantined_on_read(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        key = _key("victim")
        bystander = _key("bystander")
        tier.store({key: _payload("victim"), bystander: _payload("bystander")})
        shard = tier.shard_path(key)
        raw = json.loads(shard.read_text())
        raw["entries"][key]["tag"] = "tampered"
        shard.write_text(json.dumps(raw))

        assert tier.get(key) is None
        assert tier.integrity_failures == 1
        assert tier.quarantined == 1
        assert list(
            (tmp_path / "store").glob(f"entry-{key[:16]}.corrupt-*")
        )
        # Only the damaged entry died; shard-mates are untouched.
        if bystander in json.loads(shard.read_text()).get("entries", {}):
            assert tier.get(bystander) == _payload("bystander")
        # The entry is gone from the shard, so the next read is a
        # plain miss, not a second quarantine.
        assert tier.get(key) is None
        assert tier.integrity_failures == 1

    def test_quarantine_record_preserves_evidence(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        key = _key("evidence")
        tier.store({key: _payload("evidence")})
        shard = tier.shard_path(key)
        raw = json.loads(shard.read_text())
        raw["entries"][key]["tag"] = "tampered"
        shard.write_text(json.dumps(raw))
        tier.get(key)
        record_path = next(
            (tmp_path / "store").glob(f"entry-{key[:16]}.corrupt-*")
        )
        record = json.loads(record_path.read_text())
        assert record["key"] == key
        assert record["entry"]["tag"] == "tampered"
        assert "integrity" in record["reason"]

    def test_indented_store_from_older_builds_serves(self, tmp_path):
        # Older builds wrote shards and the index indented.  Hashes cover
        # the canonical payload bytes, so the file layout cannot matter.
        root = tmp_path / "store"
        entries = {_key(f"old-{n}"): _payload(f"old-{n}") for n in range(6)}
        ShardedDiskTier(root).store(entries)
        for path in [*root.glob("shard-*.json"), root / INDEX_NAME]:
            path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        tier = ShardedDiskTier(root)
        assert set(tier.load_index(verify=True)["entries"]) == set(entries)
        for key, payload in entries.items():
            assert tier.get(key) == payload
        assert tier.integrity_failures == 0
        tier.store({_key("new"): _payload("new")})
        assert tier.entry_count() == len(entries) + 1


class TestTtlOnRead:
    def test_expired_entry_reads_as_miss(self, tmp_path):
        clock = FixedClock(1_000.0)
        with installed(clock):
            tier = ShardedDiskTier(
                tmp_path / "store", limits=StoreLimits(ttl_seconds=60.0)
            )
            key = _key("aging")
            tier.store({key: _payload("aging")})
            clock.advance(59.0)
            assert tier.get(key) == _payload("aging")
            clock.advance(2.0)
            assert tier.get(key) is None
            # Refused, not destroyed: only GC removes it.
            assert key in tier.keys()


class TestLegacyShards:
    @staticmethod
    def _write_v1_shard(tier, key, payload):
        shard = tier.shard_path(key)
        shard.parent.mkdir(parents=True, exist_ok=True)
        shard.write_text(
            json.dumps(
                {
                    "version": 1,
                    "type": "portfolio_cache_shard",
                    "entries": {key: payload},
                }
            )
        )

    def test_v1_entries_serve_without_meta(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        key = _key("legacy")
        self._write_v1_shard(tier, key, _payload("legacy"))
        assert tier.get(key) == _payload("legacy")

    def test_rewrite_backfills_meta(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        legacy_key = _key("legacy")
        self._write_v1_shard(tier, legacy_key, _payload("legacy"))
        # Any merge into the same shard stamps the stragglers.
        sibling = next(
            _key(f"sib-{i}")
            for i in range(1000)
            if tier.shard_path(_key(f"sib-{i}"))
            == tier.shard_path(legacy_key)
        )
        tier.store({sibling: _payload("sibling")})
        raw = json.loads(tier.shard_path(legacy_key).read_text())
        assert raw["version"] == 2
        assert legacy_key in raw["meta"]
        assert raw["meta"][legacy_key]["h"]


class TestIndex:
    def test_index_matches_scan(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        entries = {_key(f"i-{n}"): _payload(f"i-{n}") for n in range(8)}
        tier.store(entries)
        assert tier.entry_count() == 8
        assert tier.bytes_used() == sum(
            len(canonical_payload_bytes(p)) for p in entries.values()
        )

    def test_missing_index_rebuilds_from_shards(self, tmp_path):
        root = tmp_path / "store"
        tier = ShardedDiskTier(root)
        tier.store({_key("a"): _payload("a"), _key("b"): _payload("b")})
        (root / INDEX_NAME).unlink()
        reopened = ShardedDiskTier(root)
        assert reopened.entry_count() == 2

    def test_stale_index_rebuilds_under_verify(self, tmp_path):
        root = tmp_path / "store"
        tier = ShardedDiskTier(root)
        tier.store({_key("a"): _payload("a")})
        # A foreign writer replaces the index with a fabricated one.
        (root / INDEX_NAME).write_text(
            json.dumps(
                {
                    "type": "portfolio_cache_index",
                    "version": 1,
                    "entries": {},
                    "shards": {},
                }
            )
        )
        fresh = ShardedDiskTier(root)
        assert fresh.load_index(verify=True)["entries"]
        assert fresh.entry_count() == 1

    def test_store_stamps_only_the_written_shard(self, tmp_path, monkeypatch):
        tier = ShardedDiskTier(tmp_path / "store")
        tier.store({_key(f"p-{n}"): _payload(f"p-{n}") for n in range(8)})
        scans = []
        full_stamps = tier._shard_stamps
        monkeypatch.setattr(
            tier, "_shard_stamps", lambda: scans.append(1) or full_stamps()
        )
        key = _key("fresh")
        tier.store({key: _payload("fresh")})
        assert scans == []
        shard = tier.shard_path(key)
        stamp = tier.load_index()["shards"][shard.name]
        assert tuple(stamp) == tier._shard_stamp(shard)

    def test_unindexed_shard_write_stays_visible_to_verify(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "store")
        tier.store({_key("a"): _payload("a")})
        # A writer that died between its shard write and its index
        # update: the entry is in a shard the index never heard of.
        hidden = _key("hidden")
        tier._merge({hidden: _payload("hidden")})
        taken = {tier.shard_path(_key("a")), tier.shard_path(hidden)}
        other = next(
            key
            for key in (_key(f"other-{n}") for n in range(64))
            if tier.shard_path(key) not in taken
        )
        tier.store({other: _payload("other")})
        assert hidden not in tier.load_index()["entries"]
        assert hidden in tier.load_index(verify=True)["entries"]

    def test_write_path_stamps_agree_with_a_full_scan(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        tier = ShardedDiskTier(root)
        for n in range(40):
            tier.store({_key(f"w-{n % 30}"): _payload(f"w-{n}")})
        rebuilds = []
        rebuild = tier.rebuild_index
        monkeypatch.setattr(
            tier, "rebuild_index", lambda: rebuilds.append(1) or rebuild()
        )
        assert len(tier.load_index(verify=True)["entries"]) == 30
        # Deleted mid-life: the next write rebuilds the index by a scan.
        (root / INDEX_NAME).unlink()
        tier.store({_key("after"): _payload("after")})
        assert len(tier.load_index(verify=True)["entries"]) == 31
        assert rebuilds == []

    def test_touch_stamps_batch_into_index(self, tmp_path):
        clock = FixedClock(1_000.0)
        with installed(clock):
            tier = ShardedDiskTier(tmp_path / "store")
            key = _key("touched")
            tier.store({key: _payload("touched")})
            clock.advance(50.0)
            tier.get(key)
            tier.sync_index()
            index = tier.load_index()
            assert index["entries"][key]["a"] == 1_050.0



def _warm(root, count: int = 20) -> ShardedDiskTier:
    """A store of ``count`` entries with its log folded, so the next
    few writes stay below the fold threshold."""
    tier = ShardedDiskTier(root)
    for n in range(count):
        tier.store({_key(f"warm-{n}"): _payload(f"warm-{n}")})
    tier.load_index()
    return tier


def _spy_files(monkeypatch):
    """Record every path opened or replaced, and the files created by
    an open of a path that did not exist."""
    created, touched = [], []
    real_os_open, real_open, real_replace = os.open, builtins.open, os.replace

    def os_open(path, flags, *args, **kwargs):
        touched.append(str(path))
        if flags & os.O_CREAT and not os.path.exists(path):
            created.append(str(path))
        return real_os_open(path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            touched.append(str(file))
            if any(c in mode for c in "wax") and not os.path.exists(file):
                created.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    def replace(src, dst, *args, **kwargs):
        touched.append(str(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(os, "replace", replace)
    return created, touched


def _second_writer(root, ready, go, results) -> None:
    """Writer-process body for the two-writer count test."""
    tier = ShardedDiskTier(root)
    ready.set()
    go.wait(30)
    tier.store({_key(f"second-{n}"): _payload(f"second-{n}") for n in (0, 1)})
    results.put((tier.entry_count(), tier.bytes_used()))


class TestIndexLog:
    def test_miss_creates_one_file_and_leaves_the_snapshot_alone(
        self, tmp_path, monkeypatch
    ):
        # The write path's cost guard: below the fold threshold a miss
        # (get, then store of a fresh key) creates only the shard's
        # tempfile and neither reads nor writes cache-index.json.
        tier = _warm(tmp_path / "store")
        key = _key("fresh")
        created, touched = _spy_files(monkeypatch)
        assert tier.get(key) is None
        tier.store({key: _payload("fresh")})
        monkeypatch.undo()
        assert len(created) == 1, created
        assert os.path.basename(created[0]).startswith(".shard-")
        index = str(tier.index_path())
        assert not [path for path in touched if path.startswith(index)]
        assert not [path for path in touched if ".cache-index.json." in path]
        assert ShardedDiskTier(tmp_path / "store").entry_count() == 21

    def test_opening_a_store_creates_no_log(self, tmp_path):
        root = tmp_path / "store"
        tier = ShardedDiskTier(root)
        assert not (root / INDEX_LOG_NAME).exists()
        tier.store({_key("a"): _payload("a")})
        assert (root / INDEX_LOG_NAME).exists()

    def test_write_path_folds_past_the_snapshot_entry_count(self, tmp_path):
        root = tmp_path / "store"
        tier = _warm(root, 20)
        snapshot = (root / INDEX_NAME).stat().st_ino
        # Each write logs two records (its entry and its shard's stamp),
        # so the eleventh write takes the log past 20 records.
        for n in range(10):
            tier.store({_key(f"fold-{n}"): _payload(f"fold-{n}")})
        assert (root / INDEX_NAME).stat().st_ino == snapshot
        assert (root / INDEX_LOG_NAME).stat().st_size > 0
        tier.store({_key("fold-10"): _payload("fold-10")})
        assert (root / INDEX_NAME).stat().st_ino != snapshot
        assert (root / INDEX_LOG_NAME).stat().st_size == 0
        folded = json.loads((root / INDEX_NAME).read_text())
        assert len(folded["entries"]) == 31
        assert tier.entry_count() == 31

    def test_torn_log_tail_rebuilds_from_shards_on_open(self, tmp_path):
        root = tmp_path / "store"
        tier = _warm(root, 6)
        entries = {_key(f"t-{n}"): _payload(f"t-{n}") for n in range(3)}
        for key, payload in entries.items():
            tier.store({key: payload})
        # A writer that died mid-append leaves half a record behind.
        with open(root / INDEX_LOG_NAME, "ab") as log:
            log.write(b'{"k":"ab')
        reopened = ShardedDiskTier(root)
        assert reopened.quarantined == 2  # the log and its snapshot
        assert list(root.glob(f"{INDEX_LOG_NAME}.corrupt-*"))
        assert list(root.glob(f"{INDEX_NAME}.corrupt-*"))
        assert reopened.entry_count() == 9
        for key, payload in entries.items():
            assert reopened.get(key) == payload
        for n in range(6):
            assert reopened.get(_key(f"warm-{n}")) == _payload(f"warm-{n}")

    def test_gc_after_logged_writes_leaves_no_evicted_key(self, tmp_path):
        root = tmp_path / "store"
        clock = FixedClock(1_000.0)
        with installed(clock):
            tier = _warm(root, 20)
            other = ShardedDiskTier(root)  # a second writer, logging too
            for n in range(4):
                clock.advance(1.0)
                other.store({_key(f"late-{n}"): _payload(f"late-{n}")})
            tier.limits = StoreLimits(max_entries=10)
            evicted = set(run_gc(tier).evicted_keys)
            assert len(evicted) == 14
            other.store({_key("after"): _payload("after")})
        index = ShardedDiskTier(root).load_index()
        assert evicted.isdisjoint(index["entries"])
        assert len(index["entries"]) == 11
        assert other.entry_count() == 11

    def test_two_writer_processes_count_each_other(self, tmp_path):
        root = tmp_path / "store"
        first = _warm(root, 20)
        snapshot = (root / INDEX_NAME).stat().st_mtime_ns
        ctx = multiprocessing.get_context("fork")
        ready, go, results = ctx.Event(), ctx.Event(), ctx.Queue()
        second = ctx.Process(
            target=_second_writer, args=(str(root), ready, go, results)
        )
        second.start()
        try:
            assert ready.wait(30)
            first.store({_key("first-0"): _payload("first-0")})
            go.set()
            second_count, second_bytes = results.get(timeout=30)
        finally:
            second.join(30)
        assert second.exitcode == 0
        first.store({_key("first-1"): _payload("first-1")})
        tags = [f"warm-{n}" for n in range(20)] + [
            "first-0", "second-0", "second-1", "first-1"
        ]
        sizes = [len(canonical_payload_bytes(_payload(tag))) for tag in tags]
        assert (second_count, second_bytes) == (23, sum(sizes[:23]))
        assert (first.entry_count(), first.bytes_used()) == (24, sum(sizes))
        # Both counted through the log: nobody rewrote the snapshot.
        assert (root / INDEX_NAME).stat().st_mtime_ns == snapshot


class TestQuarantineEvidence:
    def test_two_torn_shards_in_one_second_keep_both(self, tmp_path):
        with installed(FixedClock(1_000_000.0)):
            tier = ShardedDiskTier(tmp_path / "store")
            key = _key("twice")
            shard = tier.shard_path(key)
            for torn in (b'{"first', b'{"second'):
                tier.store({key: _payload("twice")})
                shard.write_bytes(torn)
                assert tier.get(key) is None
        assert tier.quarantined == 2
        evidence = sorted(shard.parent.glob(f"{shard.name}.corrupt-*"))
        assert sorted(path.read_bytes() for path in evidence) == [
            b'{"first',
            b'{"second',
        ]

    def test_two_entry_quarantines_in_one_second_keep_both(self, tmp_path):
        with installed(FixedClock(1_000_000.0)):
            tier = ShardedDiskTier(tmp_path / "store")
            key = _key("entry-twice")
            shard = tier.shard_path(key)
            for tag in ("first", "second"):
                tier.store({key: _payload("entry-twice")})
                raw = json.loads(shard.read_text())
                raw["entries"][key]["tag"] = tag
                shard.write_text(json.dumps(raw))
                assert tier.get(key) is None
        assert tier.integrity_failures == 2
        records = [
            json.loads(path.read_text())
            for path in (tmp_path / "store").glob(f"entry-{key[:16]}.corrupt-*")
        ]
        assert sorted(r["entry"]["tag"] for r in records) == ["first", "second"]


class TestResultCacheLifecycleStats:
    def test_counters_surface_through_refresh(self, tmp_path):
        cache = ResultCache.sharded(
            tmp_path / "store", max_bytes=1_000_000
        )
        from repro.core.binary_matrix import BinaryMatrix
        from repro.service.portfolio import solve_portfolio

        matrix = BinaryMatrix([0b11, 0b01], 2)
        cache.put(matrix, solve_portfolio(matrix, members=("trivial",)))
        cache.flush()
        stats = cache.refresh_stats()
        assert stats.bytes_used > 0
        assert stats.gc_runs == 0
        assert stats.integrity_failures == 0
        assert set(stats.as_dict()) >= {
            "store_evictions",
            "gc_runs",
            "integrity_failures",
            "bytes_used",
        }

    def test_sharded_limits_kwargs_persist(self, tmp_path):
        root = tmp_path / "store"
        ResultCache.sharded(root, max_entries=5, ttl_seconds=60.0)
        tier = ShardedDiskTier(root)
        assert tier.limits.max_entries == 5
        assert tier.limits.ttl_seconds == 60.0


class TestMetaHelpers:
    def test_make_entry_meta_is_clock_driven(self):
        with installed(FixedClock(123.0)):
            meta = make_entry_meta({"depth": 1})
        assert meta["c"] == 123.0
        assert meta["a"] == 123.0
        assert meta["v"] == SOLVER_SCHEMA_VERSION
        assert verify_entry({"depth": 1}, meta)
