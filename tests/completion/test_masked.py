"""Unit tests for masked (don't-care) matrices."""

import random

import pytest

from repro.completion.heuristic import masked_pack_rows_once
from repro.completion.masked import (
    MaskedMatrix,
    masked_fooling_number,
    validate_masked_partition,
)
from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidMatrixError, InvalidPartitionError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle


class TestConstruction:
    def test_from_strings(self):
        m = MaskedMatrix.from_strings(["1*0", "01*"])
        assert m.value(0, 0) == "1"
        assert m.value(0, 1) == "*"
        assert m.value(0, 2) == "0"
        assert m.to_strings() == ["1*0", "01*"]

    def test_bad_character(self):
        with pytest.raises(InvalidMatrixError):
            MaskedMatrix.from_strings(["1x0"])

    def test_overlap_rejected(self):
        ones = BinaryMatrix.from_strings(["1"])
        dc = BinaryMatrix.from_strings(["1"])
        with pytest.raises(InvalidMatrixError):
            MaskedMatrix(ones, dc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidMatrixError):
            MaskedMatrix(BinaryMatrix.zeros(1, 2), BinaryMatrix.zeros(2, 1))

    def test_from_target_and_vacancies(self):
        target = BinaryMatrix.from_strings(["10", "00"])
        vacancies = BinaryMatrix.from_strings(["00", "01"])
        m = MaskedMatrix.from_target_and_vacancies(target, vacancies)
        assert m.value(1, 1) == "*"
        assert m.value(0, 0) == "1"

    def test_target_on_vacancy_rejected(self):
        target = BinaryMatrix.from_strings(["1"])
        vacancies = BinaryMatrix.from_strings(["1"])
        with pytest.raises(InvalidMatrixError):
            MaskedMatrix.from_target_and_vacancies(target, vacancies)

    def test_free_matrix(self):
        m = MaskedMatrix.from_strings(["1*0"])
        assert m.free_matrix() == BinaryMatrix.from_strings(["110"])


class TestValidation:
    def test_valid_overlap_on_dont_care(self):
        m = MaskedMatrix.from_strings(["1*", "*1"])
        rects = [
            Rectangle.from_sets([0, 1], [0, 1]),
        ]
        # one rectangle covering everything: 1s once, stars once -> valid
        validate_masked_partition(m, Partition(rects, (2, 2)))

    def test_overlapping_rectangles_on_dont_care_allowed(self):
        m = MaskedMatrix.from_strings(["1*1"])
        rects = [
            Rectangle.from_sets([0], [0, 1]),
            Rectangle.from_sets([0], [1, 2]),
        ]
        validate_masked_partition(m, Partition(rects, (1, 3)))

    def test_double_covered_one_rejected(self):
        m = MaskedMatrix.from_strings(["11"])
        rects = [
            Rectangle.from_sets([0], [0, 1]),
            Rectangle.from_sets([0], [1]),
        ]
        with pytest.raises(InvalidPartitionError):
            validate_masked_partition(m, Partition(rects, (1, 2)))

    def test_covered_zero_rejected(self):
        m = MaskedMatrix.from_strings(["10"])
        rects = [Rectangle.from_sets([0], [0, 1])]
        with pytest.raises(InvalidPartitionError):
            validate_masked_partition(m, Partition(rects, (1, 2)))

    def test_missed_one_rejected(self):
        m = MaskedMatrix.from_strings(["11"])
        rects = [Rectangle.single(0, 0)]
        with pytest.raises(InvalidPartitionError):
            validate_masked_partition(m, Partition(rects, (1, 2)))

    def test_shape_mismatch_rejected(self):
        m = MaskedMatrix.from_strings(["1"])
        with pytest.raises(InvalidPartitionError):
            validate_masked_partition(
                m, Partition([Rectangle.single(0, 0)], (2, 2))
            )


def _validate_by_cells(masked, partition):
    """The per-cell cover check that the row-mask one must agree with."""
    counts = [[0] * masked.shape[1] for _ in range(masked.shape[0])]
    for rect in partition:
        for i, j in rect.cells():
            counts[i][j] += 1
    for i in range(masked.shape[0]):
        for j in range(masked.shape[1]):
            value = masked.value(i, j)
            count = counts[i][j]
            if value == "1" and count != 1:
                raise InvalidPartitionError(
                    f"required cell ({i}, {j}) covered {count} times"
                )
            if value == "0" and count != 0:
                raise InvalidPartitionError(
                    f"forbidden cell ({i}, {j}) covered {count} times"
                )


def _verdict(check, masked, partition):
    try:
        check(masked, partition)
    except InvalidPartitionError as exc:
        return str(exc)
    return None


def _random_masked(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 8)
    lines = [
        "".join(rng.choice("0011*") for _ in range(cols)) for _ in range(rows)
    ]
    return MaskedMatrix.from_strings(lines)


def _random_rectangle(rng, shape):
    rows, cols = shape
    return Rectangle(
        rng.randrange(1, 1 << rows), rng.randrange(1, 1 << cols)
    )


class TestAgainstCellLoop:
    """The row-mask check gives the per-cell check's verdict and message."""

    def test_valid_and_perturbed_packings(self):
        rng = random.Random(2027)
        valid = 0
        for _ in range(300):
            masked = _random_masked(rng)
            order = list(range(masked.shape[0]))
            rng.shuffle(order)
            packed = list(masked_pack_rows_once(masked, order))
            candidates = [packed]
            if packed:
                candidates.append(packed[1:])
                candidates.append(packed + [rng.choice(packed)])
            candidates.append(packed + [_random_rectangle(rng, masked.shape)])
            for rects in candidates:
                partition = Partition(rects, masked.shape)
                expected = _verdict(_validate_by_cells, masked, partition)
                got = _verdict(validate_masked_partition, masked, partition)
                assert got == expected
                valid += expected is None
        assert valid >= 300

    def test_random_rectangles(self):
        rng = random.Random(2028)
        for _ in range(500):
            masked = _random_masked(rng)
            rects = [
                _random_rectangle(rng, masked.shape)
                for _ in range(rng.randint(0, 4))
            ]
            partition = Partition(rects, masked.shape)
            assert _verdict(
                validate_masked_partition, masked, partition
            ) == _verdict(_validate_by_cells, masked, partition)


class TestMaskedFooling:
    def test_identity_like(self):
        m = MaskedMatrix.from_strings(["10", "01"])
        assert masked_fooling_number(m) == 2

    def test_dont_cares_weaken_bound(self):
        # with the crosses don't-care, the two diagonal 1s can share
        m = MaskedMatrix.from_strings(["1*", "*1"])
        assert masked_fooling_number(m) == 1

    def test_empty(self):
        m = MaskedMatrix.from_strings(["**", "**"])
        assert masked_fooling_number(m) == 0

    def test_greedy_fallback(self):
        m = MaskedMatrix.from_strings(["10", "01"])
        assert masked_fooling_number(m, max_cells=1) >= 1
