"""Unit tests for bit-mask helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import bitops
from repro.utils.bitops import (
    TRANSPOSE_BY_NUMPY_ABOVE,
    bit_indices,
    bits_from_indices,
    is_subset,
    iter_submasks,
    lowest_set_bit,
    mask_to_tuple,
    popcount,
    transpose_masks,
)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_single_bits(self):
        for k in range(70):
            assert popcount(1 << k) == 1

    def test_full_mask(self):
        assert popcount((1 << 100) - 1) == 100


class TestBitIndices:
    def test_empty(self):
        assert list(bit_indices(0)) == []

    def test_ascending_order(self):
        assert list(bit_indices(0b101101)) == [0, 2, 3, 5]

    def test_large_index(self):
        assert list(bit_indices(1 << 200)) == [200]


class TestMaskRoundTrip:
    def test_round_trip(self):
        mask = 0b1011001
        assert bits_from_indices(mask_to_tuple(mask)) == mask

    def test_from_indices_duplicates_collapse(self):
        assert bits_from_indices([1, 1, 3]) == 0b1010

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bits_from_indices([-1])


class TestIsSubset:
    def test_subset(self):
        assert is_subset(0b0101, 0b1101)

    def test_not_subset(self):
        assert not is_subset(0b0101, 0b1001)

    def test_zero_subset_of_everything(self):
        assert is_subset(0, 0)
        assert is_subset(0, 0b111)


class TestIterSubmasks:
    def test_counts(self):
        mask = 0b1011
        subs = list(iter_submasks(mask))
        assert len(subs) == 2 ** popcount(mask)
        assert len(set(subs)) == len(subs)
        assert all(is_subset(s, mask) for s in subs)

    def test_zero(self):
        assert list(iter_submasks(0)) == [0]


class TestLowestSetBit:
    def test_basic(self):
        assert lowest_set_bit(0b1010100) == 2

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            lowest_set_bit(0)


def reference_transpose(masks, width):
    """``transpose_masks`` as it was before its numpy path: one pass
    over the set bits."""
    out = [0] * width
    bit = 1
    for mask in masks:
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
        bit <<= 1
    return out


def random_masks(num_rows, width, occupancy, seed):
    rng = random.Random(seed)
    return [
        sum(1 << j for j in range(width) if rng.random() < occupancy)
        for _ in range(num_rows)
    ]


def with_ones(num_rows, width, ones, seed):
    """Masks with exactly ``ones`` set bits, placed at random."""
    masks = [0] * num_rows
    for cell in random.Random(seed).sample(range(num_rows * width), ones):
        masks[cell // width] |= 1 << cell % width
    return masks


@pytest.fixture
def paths(monkeypatch):
    """The path each ``transpose_masks`` call takes, in call order."""
    taken = []
    for name in ("_transpose_by_bits", "_transpose_by_numpy"):
        original = getattr(bitops, name)

        def spy(masks, width, name=name, original=original):
            taken.append(name)
            return original(masks, width)

        monkeypatch.setattr(bitops, name, spy)
    return taken


class TestTransposeMasks:
    """Both paths against the bit loop, on shapes whose sides are and
    are not multiples of 8."""

    @pytest.mark.parametrize(
        "num_rows,width",
        [(0, 0), (0, 5), (5, 0), (1, 1), (7, 9), (8, 16), (10, 10),
         (13, 17), (31, 33), (64, 64), (100, 100), (130, 70), (70, 130)],
    )
    def test_both_paths_match_the_bit_loop(self, num_rows, width):
        for occupancy in (0, 0.01, 0.2, 0.5, 1):
            masks = random_masks(num_rows, width, occupancy, seed=num_rows)
            expected = reference_transpose(masks, width)
            assert bitops._transpose_by_bits(masks, width) == expected
            assert bitops._transpose_by_numpy(masks, width) == expected
            assert transpose_masks(masks, width) == expected

    @given(
        st.integers(0, 130),
        st.integers(0, 70),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, num_rows, width, occupancy, seed):
        masks = random_masks(num_rows, width, occupancy, seed)
        expected = reference_transpose(masks, width)
        assert bitops._transpose_by_numpy(masks, width) == expected
        assert transpose_masks(masks, width) == expected

    @pytest.mark.parametrize(
        "num_rows,width,occupancy,path",
        [
            (10, 10, 0.01, "_transpose_by_bits"),
            (10, 10, 0.5, "_transpose_by_bits"),
            (100, 100, 0.01, "_transpose_by_bits"),
            (100, 100, 0.02, "_transpose_by_bits"),
            (100, 100, 0.2, "_transpose_by_numpy"),
        ],
    )
    def test_selection(self, paths, num_rows, width, occupancy, path):
        masks = random_masks(num_rows, width, occupancy, seed=1)
        assert transpose_masks(masks, width) == reference_transpose(masks, width)
        assert paths == [path]

    @pytest.mark.parametrize("num_rows,width", [(10, 10), (13, 70), (100, 100)])
    def test_either_side_of_the_crossover(self, paths, num_rows, width):
        crossover = TRANSPOSE_BY_NUMPY_ABOVE + 2 * (num_rows + width)
        for ones in (crossover, crossover + 1):
            masks = with_ones(num_rows, width, ones, seed=ones)
            assert transpose_masks(masks, width) == reference_transpose(
                masks, width
            )
        assert paths == ["_transpose_by_bits", "_transpose_by_numpy"]
