"""Cross-solver equivalence: every portfolio member must agree.

For every paper matrix and a seeded random sample, each member must
return a *valid* partition (validated both as an EBMF and as a cover),
the exact backends (SAP, branch and bound) must agree on the optimal
depth, and every heuristic must land at or above it.
"""

from importlib import import_module

import pytest

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.core.paper_matrices import (
    equation_2,
    figure_1b,
    figure_3,
    section_2_nonbinary_example,
)
from repro.core.partition import Partition
from repro.cover.validate import validate_cover
from repro.service.portfolio import (
    is_exact_member,
    run_member,
    member_seed,
    solve_portfolio,
    validate_members,
)
from tests.conftest import SERVICE_SEED

HEURISTIC_MEMBERS = ("trivial", "packing:8", "packing_x:4", "greedy:4")
EXACT_MEMBERS = ("sap", "sap_paper", "branch_bound")
ALL_MEMBERS = HEURISTIC_MEMBERS + EXACT_MEMBERS

PAPER_CASES = [
    ("figure_1b", figure_1b()),
    ("equation_2", equation_2()),
    ("figure_3", figure_3()),
    ("section_2", section_2_nonbinary_example()),
]

PAPER_OPTIMA = {
    "figure_1b": 5,
    "equation_2": 3,
    "figure_3": 4,
    "section_2": 3,
}


def _all_cases(service_matrices):
    return PAPER_CASES + list(service_matrices)


class TestEveryMemberValid:
    @pytest.mark.parametrize(
        "case_id,matrix", PAPER_CASES, ids=[c[0] for c in PAPER_CASES]
    )
    @pytest.mark.parametrize("member", ALL_MEMBERS)
    def test_member_valid_on_paper_matrices(self, case_id, matrix, member):
        outcome = run_member(
            matrix, member, seed=member_seed(SERVICE_SEED, member)
        )
        assert outcome.error is None
        assert outcome.partition is not None
        outcome.partition.validate(matrix)
        validate_cover(matrix, outcome.partition)
        assert outcome.depth == outcome.partition.depth

    def test_member_valid_on_random_sample(self, service_matrices):
        for case_id, matrix in service_matrices:
            for member in ALL_MEMBERS:
                outcome = run_member(
                    matrix, member, seed=member_seed(SERVICE_SEED, member)
                )
                assert outcome.partition is not None, (case_id, member)
                outcome.partition.validate(matrix)
                validate_cover(matrix, outcome.partition)


class TestExactBackendsAgree:
    def test_exact_agree_and_heuristics_dominate(self, service_matrices):
        for case_id, matrix in _all_cases(service_matrices):
            result = solve_portfolio(
                matrix,
                members=ALL_MEMBERS,
                seed=SERVICE_SEED,
                stop_when_optimal=False,
            )
            depths = result.member_depths()
            exact_depths = {
                name: depths[name]
                for name in EXACT_MEMBERS
                if result.member(name).proved_optimal
            }
            assert set(exact_depths) == set(EXACT_MEMBERS), (
                f"{case_id}: exact member failed to prove optimality"
            )
            optimum = exact_depths["sap"]
            assert exact_depths["branch_bound"] == optimum, case_id
            assert result.optimal
            assert result.depth == optimum
            assert result.lower_bound <= optimum
            for name in HEURISTIC_MEMBERS:
                assert depths[name] >= optimum, (case_id, name)

    def test_paper_optima(self):
        for case_id, matrix in PAPER_CASES:
            result = solve_portfolio(
                matrix,
                members=("packing:8", "sap", "branch_bound"),
                seed=SERVICE_SEED,
                stop_when_optimal=False,
            )
            assert result.depth == PAPER_OPTIMA[case_id], case_id


class TestPaperFormulaMember:
    """``sap_paper``: SAP with the paper's formula."""

    def test_is_exact(self):
        assert is_exact_member("sap_paper") and is_exact_member("sap_paper:8")

    def test_proves_by_query_where_sap_proves_by_bound(self):
        sap, paper = (
            run_member(figure_1b(), name, seed=0)
            for name in ("sap:16", "sap_paper:16")
        )
        assert (sap.depth, sap.proved_optimal) == (5, True)
        assert (paper.depth, paper.proved_optimal) == (5, True)
        # Figure 1b's fooling number is 5: the default needs no query.
        assert sap.detail["queries"] == 0
        assert paper.detail["queries"] >= 1
        assert paper.detail["final_query_unsat"]


class TestProvenance:
    def test_every_result_carries_provenance(self, service_matrices):
        for case_id, matrix in _all_cases(service_matrices):
            result = solve_portfolio(
                matrix, members=("trivial", "packing:4", "sap"),
                seed=SERVICE_SEED,
            )
            payload = result.provenance()
            assert payload["winner"] in ("trivial", "packing:4", "sap")
            assert isinstance(payload["wall_seconds"], float)
            assert isinstance(payload["optimal"], bool)
            assert payload["depth"] == result.depth
            assert len(payload["members"]) == 3
            ran = [m for m in payload["members"] if not m["skipped"]]
            assert ran, case_id
            for entry in ran:
                assert entry["seconds"] >= 0.0

    def test_stop_when_optimal_skips_tail(self):
        matrix = equation_2()  # trivial is already optimal (r_B = 3 = rows)
        result = solve_portfolio(
            matrix,
            members=("trivial", "packing:8", "sap"),
            seed=SERVICE_SEED,
            stop_when_optimal=True,
        )
        assert result.optimal
        assert result.member("sap").skipped
        assert result.member("packing:8").skipped

    def test_malformed_member_specs_fail_fast(self):
        for bad in (("magic:3",), ("packing:0", "sap"), (), ("trivial", "")):
            with pytest.raises(SolverError):
                solve_portfolio(figure_3(), members=bad, seed=SERVICE_SEED)

    def test_branch_bound_takes_no_trial_count(self):
        validate_members(("branch_bound", "sap:4"))
        for bad in ("branch_bound:7", "branch_bound:"):
            with pytest.raises(SolverError, match="no trial count"):
                validate_members(("trivial", bad))

    def test_exact_spec_needs_a_count_after_its_colon(self):
        validate_members(("sap", "sap_paper", "sap:4", "sap_paper:4"))
        for bad in ("sap:", "sap_paper:"):
            with pytest.raises(SolverError, match="bad trial count ''"):
                validate_members(("trivial", bad))

    def test_budget_starvation_falls_back_to_trivial(self):
        result = solve_portfolio(
            figure_1b(),
            members=("sap",),
            seed=SERVICE_SEED,
            budget=0.0,
        )
        result.partition.validate(figure_1b())
        assert result.member("sap").skipped
        assert result.winner == "trivial"


TRANSPOSE_PACKS_SHALLOWER = BinaryMatrix.from_strings(
    ["010100", "001000", "001101", "100110", "110010", "101011"]
)
"""Every row order packs this matrix into 6 rectangles and its transpose
into 5, so ``best_of_trials`` returns a partition it transposed back,
which no packing pass validated."""


class TestHeuristicMembersValidateOnce:
    """The registry heuristics validate the partition they return, so
    ``run_member`` does not validate it a second time."""

    @pytest.mark.parametrize(
        "name,matrix",
        [("trivial", figure_3()), ("packing:4", TRANSPOSE_PACKS_SHALLOWER)],
    )
    def test_returned_partition_validated_once(self, monkeypatch, name, matrix):
        validated = []
        validate = Partition.validate

        def spy(partition, target):
            validated.append(partition)
            validate(partition, target)

        monkeypatch.setattr(Partition, "validate", spy)
        outcome = run_member(matrix, name, seed=SERVICE_SEED)
        assert outcome.error is None
        assert sum(p is outcome.partition for p in validated) == 1

    def test_packing_member_rejects_a_pass_missing_a_rectangle(
        self, monkeypatch
    ):
        row_packing = import_module("repro.solvers.row_packing")
        pack_rows_once = row_packing.pack_rows_once

        def drop_one(side, order, **kwargs):
            partition = pack_rows_once(side, order, **kwargs)
            return Partition(partition.rectangles[1:], partition.shape)

        monkeypatch.setattr(row_packing, "pack_rows_once", drop_one)
        outcome = run_member(figure_3(), "packing:4", seed=SERVICE_SEED)
        assert outcome.partition is None and outcome.depth is None
        assert outcome.error.startswith("InvalidPartitionError: ")
