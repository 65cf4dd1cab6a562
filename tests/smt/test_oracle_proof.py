"""Proof-enabled oracle tests (the audited SAP descent)."""

import pytest

from repro.completion import (
    MaskedMatrix,
    masked_fooling_number,
    masked_row_packing,
    validate_masked_partition,
)
from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import fooling_lower_bound, rank_lower_bound
from repro.core.exceptions import ProofError
from repro.core.fooling import max_fooling_set
from repro.core.paper_matrices import equation_2, figure_1b
from repro.core.reductions import reduce_matrix
from repro.corpus.registry import build_corpus
from repro.cover import greedy_cover, validate_cover
from repro.sat.solver import SolveStatus
from repro.smt.oracle import RankDecisionOracle, descend
from repro.solvers.row_packing import PackingOptions, row_packing
from repro.utils.timing import Deadline


def _quick_instance(case_id, families=None):
    return {
        inst.case_id: inst
        for inst in build_corpus(families, profile="quick", seed=2024)
    }[case_id].matrix


def _validated(check):
    def accept(answer):
        check(answer)
        return answer

    return accept


class TestOracleProof:
    def test_descent_produces_verifiable_refutation(self):
        oracle = RankDecisionOracle(figure_1b(), proof=True)
        status, partition = oracle.check_at_most(5)
        assert status is SolveStatus.SAT and partition.depth == 5
        status, _ = oracle.check_at_most(4)
        assert status is SolveStatus.UNSAT
        oracle.verify_refutation()  # must not raise

    def test_verify_without_proof_raises(self):
        oracle = RankDecisionOracle(equation_2())
        oracle.check_at_most(2)
        with pytest.raises(ProofError):
            oracle.verify_refutation()

    def test_sat_only_descent_has_no_refutation(self):
        oracle = RankDecisionOracle(equation_2(), proof=True)
        status, _ = oracle.check_at_most(3)
        assert status is SolveStatus.SAT
        with pytest.raises(ProofError):
            oracle.verify_refutation()

    def test_non_incremental_proof_rebuilds_log(self):
        oracle = RankDecisionOracle(
            equation_2(), incremental=False, proof=True
        )
        oracle.check_at_most(3)
        first_log = oracle.proof_log
        status, _ = oracle.check_at_most(2)
        assert status is SolveStatus.UNSAT
        # Fresh solver per query: the log was replaced, and the current
        # one holds the complete (single-query) refutation.
        assert oracle.proof_log is not first_log
        oracle.verify_refutation()

    def test_assumption_mode_unsat_is_not_a_refutation(self):
        oracle = RankDecisionOracle(
            equation_2(), query_mode="assumption", proof=True
        )
        oracle.prime(3)
        status, _ = oracle.check_at_most(2)
        assert status is SolveStatus.UNSAT
        # Conditional on the assumption literal: no standalone proof.
        with pytest.raises(ProofError):
            oracle.verify_refutation()


class TestDescentRefutations:
    """Completion, cover and fooling-first descents log checkable
    refutations too."""

    def test_fooling_first_descent(self):
        """SAP's default formula: a maximum fooling set of the reduced
        matrix leads the cell order."""
        matrix = _quick_instance("gap-10x10-p2-4", ["table1-gap"])
        reduced = reduce_matrix(matrix)
        fooling = max_fooling_set(reduced.matrix, seed=2024)
        oracle = RankDecisionOracle(reduced.matrix, first=fooling, proof=True)
        start = row_packing(
            matrix, options=PackingOptions(trials=32, seed=2024)
        )

        def accept(answer):
            partition = reduced.lift(answer)
            partition.validate(matrix)
            return partition

        _, proved = descend(
            oracle,
            start,
            max(rank_lower_bound(matrix), len(fooling)),
            accept,
            deadline=Deadline(None),
        )
        last = oracle.queries[-1]
        assert proved and (last.bound, last.status) == (9, SolveStatus.UNSAT)
        oracle.verify_refutation()

    def test_completion_descent(self):
        matrix = _quick_instance("gap-10x10-p3-0", ["table1-gap"])
        rows, cols = matrix.shape
        dont_care = BinaryMatrix(
            [
                sum(
                    1 << j
                    for j in range(cols)
                    if (i + 2 * j) % 5 == 0
                    and not (matrix.row_mask(i) >> j) & 1
                )
                for i in range(rows)
            ],
            cols,
        )
        masked = MaskedMatrix(matrix, dont_care)
        oracle = RankDecisionOracle(
            masked.ones_matrix, free=masked.free_matrix(), proof=True
        )
        start = masked_row_packing(
            masked, options=PackingOptions(trials=2, seed=2024)
        )
        _, proved = descend(
            oracle,
            start,
            masked_fooling_number(masked),
            _validated(lambda p: validate_masked_partition(masked, p)),
            deadline=Deadline(None),
        )
        last = oracle.queries[-1]
        assert proved and (last.bound, last.status) == (6, SolveStatus.UNSAT)
        oracle.verify_refutation()

    def test_cover_descent(self):
        matrix = _quick_instance("fool-complement-8")
        oracle = RankDecisionOracle(matrix, cover=True, proof=True)
        _, proved = descend(
            oracle,
            greedy_cover(matrix, trials=1, seed=2024),
            fooling_lower_bound(matrix, seed=2024),
            _validated(lambda c: validate_cover(matrix, c)),
            deadline=Deadline(None),
        )
        last = oracle.queries[-1]
        assert proved and (last.bound, last.status) == (4, SolveStatus.UNSAT)
        oracle.verify_refutation()
