"""Sharded disk tier: round trips, migration, concurrent writers.

The acceptance contract: two concurrent processes hammering one shard
directory lose no entries and never deadlock (single-CPU-safe — the
processes genuinely interleave on one core).
"""

import hashlib
import json
import multiprocessing

import pytest

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.server.shards import ShardedDiskTier, atomic_write_json
from repro.service.cache import ResultCache, matrix_key
from repro.service.portfolio import result_to_dict, solve_portfolio

MEMBERS = ("trivial", "packing:2")


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _payload(tag: str) -> dict:
    return {"type": "portfolio_result", "tag": tag}


def _write_single_file_cache(path, results) -> None:
    """A single-file cache as older builds wrote it, one entry per
    ``{matrix: result}`` item."""
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "type": "portfolio_cache",
                "entries": {
                    matrix_key(matrix): result_to_dict(result)
                    for matrix, result in results.items()
                },
            }
        )
    )


def _write_entries(root: str, start: int, count: int) -> None:
    """Worker for the concurrent-writer tests (module-level: picklable)."""
    tier = ShardedDiskTier(root)
    for index in range(start, start + count):
        tier.store({_key(f"entry-{index}"): _payload(f"entry-{index}")})


class TestTierBasics:
    def test_store_get_round_trip(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "cache")
        key = _key("a")
        tier.store({key: _payload("a")})
        assert tier.get(key) == _payload("a")
        assert tier.get(_key("missing")) is None
        assert tier.keys() == {key}

    def test_store_merges_instead_of_overwriting(self, tmp_path):
        """Two tier handles (think: two processes) never clobber each
        other's entries — the core no-lost-entries property."""
        root = tmp_path / "cache"
        first = ShardedDiskTier(root)
        second = ShardedDiskTier(root)
        first.store({_key("a"): _payload("a")})
        second.store({_key("b"): _payload("b")})
        assert ShardedDiskTier(root).keys() == {_key("a"), _key("b")}

    def test_dirty_filter_restricts_writes(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "cache")
        entries = {_key("a"): _payload("a"), _key("b"): _payload("b")}
        tier.store(entries, dirty={_key("a")})
        assert tier.keys() == {_key("a")}

    def test_no_temp_files_left_behind(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "cache")
        for tag in "abcdef":
            tier.store({_key(tag): _payload(tag)})
        leftovers = [
            p for p in (tmp_path / "cache").iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_rejects_non_hex_keys(self, tmp_path):
        tier = ShardedDiskTier(tmp_path / "cache")
        with pytest.raises(SolverError):
            tier.store({"not-a-digest": _payload("x")})

    def test_quarantines_foreign_shard_file(self, tmp_path):
        # A non-shard payload inside the shard directory is damage:
        # it is moved aside and the shard reads cold (PR 5 changed
        # this from raising, which failed every solve on the shard).
        root = tmp_path / "cache"
        tier = ShardedDiskTier(root)
        key = _key("a")
        shard = tier.shard_path(key)
        atomic_write_json(shard, {"type": "something_else"})
        assert tier.get(key) is None
        assert tier.quarantined == 1
        assert not shard.exists()
        assert list(root.glob("shard-*.json.corrupt-*"))

    def test_newer_shard_version_still_raises(self, tmp_path):
        # A *newer* format version is healthy data this build cannot
        # parse — destroying it via quarantine would be data loss.
        root = tmp_path / "cache"
        tier = ShardedDiskTier(root)
        key = _key("a")
        shard = tier.shard_path(key)
        atomic_write_json(
            shard,
            {
                "type": "portfolio_cache_shard",
                "version": 999,
                "entries": {},
            },
        )
        with pytest.raises(SolverError):
            tier.get(key)
        assert shard.exists()
        assert tier.quarantined == 0


class TestMigration:
    def test_single_file_cache_migrates_in_place(self, tmp_path):
        path = tmp_path / "cache.json"
        matrices = [
            BinaryMatrix([(1 << n) - 1], n) for n in (1, 2, 3)
        ]
        results = {
            matrix: solve_portfolio(matrix, members=MEMBERS, seed=7)
            for matrix in matrices
        }
        _write_single_file_cache(path, results)
        assert path.is_file()

        sharded = ResultCache.sharded(path, capacity=8)
        assert path.is_dir()  # the file was resharded in place
        for matrix, result in results.items():
            hit = sharded.get(matrix)
            assert hit is not None
            assert hit.depth == result.depth
            assert hit.winner == result.winner

    def test_migration_refuses_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"type": "something_else", "entries": {}}')
        with pytest.raises(SolverError):
            ResultCache.sharded(path)
        assert path.is_file()  # untouched

    def test_fresh_directory_is_created(self, tmp_path):
        root = tmp_path / "deep" / "cache"
        ShardedDiskTier(root)
        assert root.is_dir()

    def test_crashed_migration_resumes_from_sidecar(self, tmp_path):
        """A crash between the rename-aside and the shard writes leaves
        the `.migrating` sidecar; the next open finishes the job."""
        path = tmp_path / "cache.json"
        matrix = BinaryMatrix([0b11, 0b01], 2)
        result = solve_portfolio(matrix, members=MEMBERS, seed=7)
        _write_single_file_cache(path, {matrix: result})
        # Simulate the crash point: file moved aside, no shards yet.
        path.rename(tmp_path / "cache.json.migrating")

        recovered = ResultCache.sharded(path, capacity=8)
        assert not (tmp_path / "cache.json.migrating").exists()
        hit = recovered.get(matrix)
        assert hit is not None
        assert hit.depth == result.depth

    def test_torn_sidecar_is_quarantined(self, tmp_path):
        """A torn `.migrating` sidecar is damage like a torn file: moved
        aside, counted, and the store opens cold."""
        path = tmp_path / "cache.json"
        sidecar = tmp_path / "cache.json.migrating"
        sidecar.write_text('{"version": 1, "type": "portfolio_')
        tier = ShardedDiskTier(path)
        assert tier.quarantined == 1
        assert path.is_dir()
        assert not sidecar.exists()
        assert list(tmp_path.glob("cache.json.migrating.corrupt-*"))

    @staticmethod
    def _legacy_file(path, tags):
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "type": "portfolio_cache",
                    "entries": {
                        _key(tag): _payload(tag) for tag in tags
                    },
                }
            )
        )

    def test_crash_mid_migration_with_partial_shards(self, tmp_path):
        """A crash *between shard writes* leaves the sidecar plus some
        already-resharded entries; resume must finish without losing or
        duplicating either group."""
        tags = ["mig-a", "mig-b", "mig-c", "mig-d"]
        # A completed migration elsewhere donates one genuine shard
        # file, reproducing the exact on-disk shape of an interrupted
        # _merge loop.
        donor = tmp_path / "donor.json"
        self._legacy_file(donor, tags)
        ShardedDiskTier(donor)
        donor_shards = sorted(donor.glob("shard-*.json"))
        assert donor_shards

        path = tmp_path / "cache.json"
        self._legacy_file(path, tags)
        path.rename(tmp_path / "cache.json.migrating")
        path.mkdir()
        partial = donor_shards[0]
        (path / partial.name).write_bytes(partial.read_bytes())

        tier = ShardedDiskTier(path)
        assert not (tmp_path / "cache.json.migrating").exists()
        assert tier.keys() == {_key(tag) for tag in tags}
        for tag in tags:
            assert tier.get(_key(tag)) == _payload(tag)

    def test_migration_reentry_is_idempotent(self, tmp_path):
        """Re-running a migration over fully-migrated shards (a crash
        after the last shard write but before the sidecar unlink) is a
        no-op merge, not a second copy."""
        tags = ["rep-a", "rep-b", "rep-c"]
        path = tmp_path / "cache.json"
        self._legacy_file(path, tags)
        sidecar_bytes = path.read_bytes()
        ShardedDiskTier(path)  # full migration

        # Crash point: every entry resharded, sidecar still present.
        (tmp_path / "cache.json.migrating").write_bytes(sidecar_bytes)
        tier = ShardedDiskTier(path)
        assert not (tmp_path / "cache.json.migrating").exists()
        assert tier.keys() == {_key(tag) for tag in tags}
        for tag in tags:
            assert tier.get(_key(tag)) == _payload(tag)


class TestResultCacheIntegration:
    def test_sharded_cache_read_through(self, tmp_path, service_matrices):
        root = tmp_path / "cache"
        writer = ResultCache.sharded(root, capacity=64)
        for case_id, matrix in service_matrices:
            writer.put(matrix, solve_portfolio(matrix, members=MEMBERS, seed=7))
        writer.flush()

        reader = ResultCache.sharded(root, capacity=64)
        assert len(reader) == 0  # cold memory tier; disk has the data
        for case_id, matrix in service_matrices:
            hit = reader.get(matrix)
            assert hit is not None, case_id
            assert hit.from_cache
        assert reader.stats.disk_hits == len(service_matrices)

    def test_eviction_does_not_lose_dirty_entries(self, tmp_path):
        """A memory tier smaller than the batch must still flush every
        fresh result to disk."""
        root = tmp_path / "cache"
        cache = ResultCache.sharded(root, capacity=2)
        matrices = [BinaryMatrix([(1 << n) - 1], n) for n in (1, 2, 3, 4, 5)]
        for matrix in matrices:
            cache.put(matrix, solve_portfolio(matrix, members=MEMBERS, seed=7))
        cache.flush()
        reopened = ResultCache.sharded(root, capacity=8)
        for matrix in matrices:
            assert reopened.get(matrix) is not None


class TestConcurrentWriters:
    def test_two_processes_lose_no_entries(self, tmp_path):
        """Acceptance: concurrent writers on one shard directory — all
        entries survive, nobody deadlocks."""
        root = str(tmp_path / "cache")
        count = 30
        workers = [
            multiprocessing.Process(
                target=_write_entries, args=(root, start, count)
            )
            for start in (0, count)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(not worker.is_alive() for worker in workers), (
            "writer deadlocked"
        )
        assert all(worker.exitcode == 0 for worker in workers)
        expected = {_key(f"entry-{i}") for i in range(2 * count)}
        assert ShardedDiskTier(root).keys() == expected

    def test_overlapping_keys_settle_consistently(self, tmp_path):
        """Writers racing on the *same* keys: last writer wins per key,
        and every shard file stays valid JSON."""
        root = str(tmp_path / "cache")
        workers = [
            multiprocessing.Process(
                target=_write_entries, args=(root, 0, 20)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)
        tier = ShardedDiskTier(root)
        assert tier.keys() == {_key(f"entry-{i}") for i in range(20)}
        for shard in sorted((tmp_path / "cache").glob("shard-*.json")):
            json.loads(shard.read_text())  # no torn writes
