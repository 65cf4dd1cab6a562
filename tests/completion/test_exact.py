"""Unit tests for exact masked addressing (binary matrix completion)."""

from repro.completion.exact import masked_minimum_addressing
from repro.completion.masked import MaskedMatrix, validate_masked_partition
from repro.core.binary_matrix import BinaryMatrix
from repro.sat.solver import SolveStatus
from repro.smt.encoder import DirectEncoder
from repro.solvers.sap import sap_solve


def masked_encoder(masked, bound):
    """The label encoder for ``masked``: don't-cares are free cells."""
    return DirectEncoder(masked.ones_matrix, bound, free=masked.free_matrix())


def extract_masked(encoder, masked):
    partition = encoder.decode()
    validate_masked_partition(masked, partition)
    return partition


class TestMaskedEncoder:
    def test_dont_care_enables_merge(self):
        """[[1,*],[*,1]] has a 1-rectangle cover; without the stars the
        identity needs 2."""
        masked = MaskedMatrix.from_strings(["1*", "*1"])
        encoder = masked_encoder(masked, 1)
        assert encoder.solve() is SolveStatus.SAT
        partition = extract_masked(encoder, masked)
        validate_masked_partition(masked, partition)
        assert partition.depth == 1

    def test_hard_zero_blocks_merge(self):
        masked = MaskedMatrix.from_strings(["10", "01"])
        encoder = masked_encoder(masked, 1)
        assert encoder.solve() is SolveStatus.UNSAT
        assert masked_encoder(masked, 2).solve() is SolveStatus.SAT

    def test_cross_one_pulled_into_rectangle(self):
        # cells (0,0) and (1,1) sharing forces (0,1) and (1,0) in too
        masked = MaskedMatrix.from_strings(["11", "11"])
        encoder = masked_encoder(masked, 1)
        assert encoder.solve() is SolveStatus.SAT
        assert extract_masked(encoder, masked).depth == 1

    def test_narrowing(self):
        masked = MaskedMatrix.from_strings(["10", "01"])
        encoder = masked_encoder(masked, 3)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(2)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(1)
        assert encoder.solve() is SolveStatus.UNSAT

    def test_empty(self):
        masked = MaskedMatrix.from_strings(["**"])
        encoder = masked_encoder(masked, 0)
        assert encoder.solve() is SolveStatus.SAT
        assert extract_masked(encoder, masked).depth == 0


class TestMaskedMinimumAddressing:
    def test_matches_plain_sap_without_dont_cares(self, rng):
        for _ in range(10):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            masked = MaskedMatrix(m, BinaryMatrix.zeros(rows, cols))
            masked_result = masked_minimum_addressing(
                masked, trials=8, seed=0
            )
            plain_result = sap_solve(m, trials=8, seed=0)
            assert masked_result.proved_optimal
            assert plain_result.proved_optimal
            assert masked_result.depth == plain_result.depth

    def test_dont_cares_never_hurt(self, rng):
        for _ in range(10):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            ones_masks, dc_masks = [], []
            for _ in range(rows):
                ones = rng.getrandbits(cols)
                dc = rng.getrandbits(cols) & ~ones
                ones_masks.append(ones)
                dc_masks.append(dc)
            ones_matrix = BinaryMatrix(ones_masks, cols)
            masked = MaskedMatrix(ones_matrix, BinaryMatrix(dc_masks, cols))
            with_dc = masked_minimum_addressing(masked, trials=8, seed=1)
            without_dc = sap_solve(ones_matrix, trials=8, seed=1)
            assert with_dc.proved_optimal and without_dc.proved_optimal
            assert with_dc.depth <= without_dc.depth
            validate_masked_partition(masked, with_dc.partition)

    def test_plus_pattern(self):
        """Plus-shaped target in a 3x3 with vacant corners: flooding the
        whole array with ONE rectangle hits every target exactly once and
        only wastes light on the vacant corners — depth 1, versus 2 for
        the same plus on a fully occupied array (middle row + the rest
        of the middle column)."""
        masked = MaskedMatrix.from_strings(["*1*", "111", "*1*"])
        outcome = masked_minimum_addressing(masked, trials=16, seed=0)
        assert outcome.proved_optimal
        assert outcome.depth == 1
        # without vacancies the plus needs 2 shots
        plain = sap_solve(
            BinaryMatrix.from_strings(["010", "111", "010"]),
            trials=16,
            seed=0,
        )
        assert plain.proved_optimal and plain.depth == 2

    def test_queries_recorded(self):
        masked = MaskedMatrix.from_strings(["10", "01"])
        outcome = masked_minimum_addressing(masked, trials=4, seed=0)
        assert outcome.proved_optimal
        assert outcome.lower_bound == 2
        assert outcome.heuristic_depth >= outcome.depth
