"""Injected cache corruption: quarantine, cold reads, metrics.

The write seam truncates a shard *after* the atomic replace — i.e. it
simulates what atomic writes cannot prevent (disk damage, manual
edits), not a torn write.  The contract: the next reader moves the
damage aside and proceeds with a cold shard; no solve ever fails
because of a corrupt cache file.
"""

from repro.core.binary_matrix import BinaryMatrix
from repro.service import faults
from repro.service.cache import ResultCache
from repro.service.portfolio import solve_portfolio

MEMBERS = ("trivial", "packing:2")

MATRIX = BinaryMatrix([0b110, 0b011, 0b101], 3)


def _result():
    return solve_portfolio(MATRIX, members=MEMBERS, seed=7)


class TestCorruptShardOnWrite:
    def test_next_reader_quarantines_and_reads_cold(self, tmp_path):
        root = tmp_path / "cache"
        writer = ResultCache.sharded(root)
        result = _result()
        with faults.injected(faults.FaultPlan(corrupt_shard_on_write=True)):
            writer.put(MATRIX, result)
            writer.flush()  # the seam truncates the shard just written

        reader = ResultCache.sharded(root)
        assert reader.get(MATRIX) is None  # damage -> cold, not an error
        assert reader.stats.quarantines == 1
        assert list(root.glob("shard-*.json.corrupt-*"))

        # The shard is usable again immediately.
        reader.put(MATRIX, result)
        reader.flush()
        assert ResultCache.sharded(root).get(MATRIX) is not None

    def test_seam_is_one_shot(self, tmp_path):
        root = tmp_path / "cache"
        other = BinaryMatrix([0b11, 0b01], 2)
        with faults.injected(faults.FaultPlan(corrupt_shard_on_write=True)):
            writer = ResultCache.sharded(root)
            writer.put(MATRIX, _result())
            writer.flush()  # consumes the one-shot fault
            writer.put(other, solve_portfolio(other, members=MEMBERS, seed=7))
            writer.flush()  # must write cleanly

        reader = ResultCache.sharded(root)
        assert reader.get(other) is not None
        assert reader.get(MATRIX) is None
        assert reader.stats.quarantines == 1

    def test_single_file_tier_quarantines_on_load(self, tmp_path):
        """A torn single-file cache given for migration is quarantined
        and the store opens cold at its path."""
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1, "type": "portfolio_')  # truncated

        reopened = ResultCache.sharded(path)
        assert reopened.get(MATRIX) is None
        assert reopened.stats.quarantines == 1
        assert not path.is_file()  # the store directory now lives there
        assert list(tmp_path.glob("cache.json.corrupt-*"))
