"""Unit tests for the incremental rank decision oracle."""

import threading

import pytest

from repro.completion import MaskedMatrix, masked_minimum_addressing
from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError, InvalidPartitionError
from repro.core.paper_matrices import equation_2, figure_1b
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.cover import minimum_cover
from repro.sat.solver import SolveStatus
from repro.smt.encoder import DirectEncoder
from repro.smt.oracle import RankDecisionOracle, descend
from repro.solvers.sap import sap_solve
from repro.utils.timing import Deadline


class TestIncrementalOracle:
    def test_descent_records_queries(self):
        oracle = RankDecisionOracle(figure_1b())
        status, partition = oracle.check_at_most(6)
        assert status is SolveStatus.SAT
        assert partition is not None and partition.depth <= 6
        status, partition = oracle.check_at_most(5)
        assert status is SolveStatus.SAT
        status, partition = oracle.check_at_most(4)
        assert status is SolveStatus.UNSAT
        assert partition is None
        assert [q.bound for q in oracle.queries] == [6, 5, 4]
        assert oracle.total_seconds >= 0.0

    def test_widening_rejected_in_incremental_mode(self):
        oracle = RankDecisionOracle(equation_2())
        oracle.check_at_most(3)
        with pytest.raises(EncodingError):
            oracle.check_at_most(4)

    def test_non_incremental_mode_allows_any_order(self):
        oracle = RankDecisionOracle(equation_2(), incremental=False)
        assert oracle.check_at_most(3)[0] is SolveStatus.SAT
        assert oracle.check_at_most(4)[0] is SolveStatus.SAT
        assert oracle.check_at_most(2)[0] is SolveStatus.UNSAT

    def test_binary_encoding_oracle(self):
        oracle = RankDecisionOracle(equation_2(), encoding="binary")
        assert oracle.check_at_most(3)[0] is SolveStatus.SAT
        assert oracle.check_at_most(2)[0] is SolveStatus.UNSAT

    def test_partitions_are_validated(self):
        oracle = RankDecisionOracle(figure_1b())
        _, partition = oracle.check_at_most(5)
        partition.validate(figure_1b())

    def test_conflict_budget_unknown(self):
        # A very tight conflict budget on a hard UNSAT query.
        oracle = RankDecisionOracle(figure_1b())
        status, partition = oracle.check_at_most(4, conflict_budget=1)
        assert status in (SolveStatus.UNKNOWN, SolveStatus.UNSAT)
        if status is SolveStatus.UNKNOWN:
            assert partition is None


def _one_rectangle_per_row(matrix):
    return Partition(
        [
            Rectangle(1 << i, matrix.row_mask(i))
            for i in range(matrix.num_rows)
            if matrix.row_mask(i)
        ],
        matrix.shape,
    )


def _keep(partition):
    return partition


def _whole_grid(encoder):
    """One rectangle over every cell: invalid wherever there is a 0."""
    rows, cols = encoder.matrix.shape
    return Partition([Rectangle((1 << rows) - 1, (1 << cols) - 1)], (rows, cols))


# Small instances whose descents make at least one SAT query.
_SAP = BinaryMatrix.from_strings(["10010", "11110", "01101", "01010", "10100"])
_MASKED = MaskedMatrix.from_strings(["10111", "0***1", "***00", "01*11", "*1110"])
_COVER = BinaryMatrix.from_strings(["10110", "00010", "10100", "10111", "11011"])
DESCENTS = {
    "sap-linear": lambda: sap_solve(_SAP, trials=1, seed=0),
    "sap-binary": lambda: sap_solve(_SAP, trials=1, seed=0, descent="binary"),
    "sap-assumption": lambda: sap_solve(
        _SAP, trials=1, seed=0, descent="assumption"
    ),
    "completion": lambda: masked_minimum_addressing(_MASKED, trials=1, seed=0),
    "cover": lambda: minimum_cover(_COVER, trials=1, seed=0),
}


class TestDescend:
    def test_stops_at_first_unsat(self):
        matrix = figure_1b()
        oracle = RankDecisionOracle(matrix)
        start = _one_rectangle_per_row(matrix)
        best, proved = descend(
            oracle, start, 1, _keep, deadline=Deadline(None)
        )
        assert proved and best.depth == 5
        assert oracle.queries[-1].bound == 4
        assert oracle.queries[-1].status is SolveStatus.UNSAT

    def test_lower_bound_proves_without_unsat(self):
        matrix = figure_1b()
        oracle = RankDecisionOracle(matrix)
        start = _one_rectangle_per_row(matrix)
        best, proved = descend(
            oracle, start, 5, _keep, deadline=Deadline(None)
        )
        assert proved and best.depth == 5
        assert all(q.status is SolveStatus.SAT for q in oracle.queries)

    def test_expired_deadline_asks_nothing(self):
        cancel = threading.Event()
        cancel.set()
        oracle = RankDecisionOracle(figure_1b())
        start = _one_rectangle_per_row(figure_1b())
        best, proved = descend(
            oracle, start, 1, _keep, deadline=Deadline(None, cancel=cancel)
        )
        assert best is start and not proved
        assert oracle.queries == []

    @pytest.mark.parametrize("name", sorted(DESCENTS))
    def test_every_descent_validates_what_it_keeps(self, name, monkeypatch):
        run = DESCENTS[name]
        assert any(q.status is SolveStatus.SAT for q in run().queries)
        monkeypatch.setattr(DirectEncoder, "decode", _whole_grid)
        with pytest.raises(InvalidPartitionError):
            run()
