"""Unit tests for masked row packing."""

import pytest

from repro.completion import heuristic
from repro.completion.heuristic import (
    masked_pack_rows_once,
    masked_row_packing,
)
from repro.completion.masked import MaskedMatrix, validate_masked_partition
from repro.core.binary_matrix import BinaryMatrix
from repro.solvers.row_packing import PackingOptions


def random_masked(rng, rows, cols):
    ones_masks, dc_masks = [], []
    for _ in range(rows):
        ones = rng.getrandbits(cols)
        dc = rng.getrandbits(cols) & ~ones
        ones_masks.append(ones)
        dc_masks.append(dc)
    return MaskedMatrix(
        BinaryMatrix(ones_masks, cols), BinaryMatrix(dc_masks, cols)
    )


class TestMaskedPackRowsOnce:
    def test_no_dont_cares_matches_plain_packing(self):
        from repro.solvers.row_packing import pack_rows_once

        m = BinaryMatrix.from_strings(["1100", "0011", "1111"])
        masked = MaskedMatrix(m, BinaryMatrix.zeros(3, 4))
        plain = pack_rows_once(m, range(3))
        with_mask = masked_pack_rows_once(masked, range(3))
        assert with_mask.depth == plain.depth

    def test_dont_care_bridges_rows(self):
        """Rows 10 and 01 with the crosses don't-care merge into one
        rectangle covering the whole 2x2 block."""
        masked = MaskedMatrix.from_strings(["1*", "*1"])
        partition = masked_pack_rows_once(masked, range(2))
        validate_masked_partition(masked, partition)
        assert partition.depth <= 2

    def test_always_valid_random(self, rng):
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            masked = random_masked(rng, rows, cols)
            partition = masked_pack_rows_once(
                masked, list(range(rows))
            )
            validate_masked_partition(masked, partition)


class TestMaskedRowPacking:
    def test_valid_on_random(self, rng):
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            masked = random_masked(rng, rows, cols)
            partition = masked_row_packing(
                masked, options=PackingOptions(trials=3, seed=0)
            )
            validate_masked_partition(masked, partition)

    def test_never_worse_than_ones_only_packing(self, rng):
        """Don't-cares can only help (the masked heuristic may also cover
        stars, never fewer options)."""
        from repro.solvers.row_packing import row_packing

        for _ in range(15):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            masked = random_masked(rng, rows, cols)
            seed = rng.randint(0, 999)
            with_dc = masked_row_packing(
                masked, options=PackingOptions(trials=8, seed=seed)
            )
            without_dc = row_packing(
                masked.ones_matrix,
                options=PackingOptions(trials=8, seed=seed),
            )
            assert with_dc.depth <= without_dc.depth + 1  # noise tolerance

    def test_zero_ones(self):
        masked = MaskedMatrix.from_strings(["**", "**"])
        partition = masked_row_packing(
            masked, options=PackingOptions(trials=2, seed=0)
        )
        assert partition.depth == 0


    @pytest.mark.parametrize(
        ("ordering", "passes"),
        [("given", 2), ("sparse_first", 2), ("shuffle", 20)],
    )
    def test_trials_apply_to_shuffle_only(self, monkeypatch, ordering, passes):
        calls = []
        pack_once = heuristic.masked_pack_rows_once

        def spy(masked, order, **kwargs):
            calls.append(list(order))
            return pack_once(masked, order, **kwargs)

        monkeypatch.setattr(heuristic, "masked_pack_rows_once", spy)
        masked = MaskedMatrix.from_strings(["1*0", "011", "1*1"])
        options = PackingOptions(trials=10, seed=0, ordering=ordering)
        masked_row_packing(masked, options=options)
        assert len(calls) == passes
