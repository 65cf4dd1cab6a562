"""Intra-instance racing: equivalence with sequential mode + cancellation.

The acceptance contract: ``race="concurrent"`` must produce
byte-identical winner/optimality provenance (the
``race_provenance()`` projection) to sequential mode on the
cross-solver equivalence suite, while actually cancelling losers.
"""

import json
import threading

import pytest

from repro.core.exceptions import SolverError
from repro.core.paper_matrices import (
    equation_2,
    figure_1b,
    figure_3,
    section_2_nonbinary_example,
)
from repro.service.racing import RaceToken, race_members
from repro.service.portfolio import member_seed, solve_portfolio
from tests.conftest import SERVICE_SEED

MEMBERS = ("trivial", "packing:8", "sap", "branch_bound")

PAPER_CASES = [
    ("figure_1b", figure_1b()),
    ("equation_2", equation_2()),
    ("figure_3", figure_3()),
    ("section_2", section_2_nonbinary_example()),
]


def _race_bytes(result):
    return json.dumps(result.race_provenance(), sort_keys=True).encode()


class TestEquivalence:
    def test_byte_identical_on_paper_cases(self):
        for case_id, matrix in PAPER_CASES:
            sequential = solve_portfolio(
                matrix, members=MEMBERS, seed=SERVICE_SEED,
                race="sequential",
            )
            concurrent = solve_portfolio(
                matrix, members=MEMBERS, seed=SERVICE_SEED,
                race="concurrent",
            )
            assert _race_bytes(sequential) == _race_bytes(concurrent), (
                case_id
            )
            assert concurrent.optimal, case_id
            concurrent.partition.validate(matrix)

    def test_byte_identical_on_service_suite(self, service_matrices):
        for case_id, matrix in service_matrices:
            sequential = solve_portfolio(
                matrix, members=MEMBERS, seed=SERVICE_SEED,
                race="sequential",
            )
            concurrent = solve_portfolio(
                matrix, members=MEMBERS, seed=SERVICE_SEED,
                race="concurrent",
            )
            assert _race_bytes(sequential) == _race_bytes(concurrent), (
                case_id
            )
            concurrent.partition.validate(matrix)

    def test_concurrent_outcomes_cover_every_member(self):
        result = solve_portfolio(
            figure_1b(), members=MEMBERS, seed=SERVICE_SEED,
            race="concurrent",
        )
        assert [o.name for o in result.outcomes] == list(MEMBERS)
        # Losers are either skipped (pre-race certification), finished,
        # or cancelled — but always present and attributed.
        for outcome in result.outcomes:
            assert outcome.name in MEMBERS

    def test_repeated_concurrent_runs_are_stable(self):
        matrix = figure_1b()
        baselines = [
            _race_bytes(
                solve_portfolio(
                    matrix, members=MEMBERS, seed=SERVICE_SEED,
                    race="concurrent",
                )
            )
            for _ in range(3)
        ]
        assert len(set(baselines)) == 1

    def test_bad_race_mode_rejected(self):
        with pytest.raises(SolverError):
            solve_portfolio(figure_3(), members=MEMBERS, race="turbo")


class TestCancellation:
    def test_loser_is_cancelled_or_agrees(self):
        """When SAP certifies, branch_bound either finished with the
        same optimum or was cancelled mid-search — never a third state."""
        result = solve_portfolio(
            figure_1b(),
            members=("packing:8", "sap", "branch_bound"),
            seed=SERVICE_SEED,
            race="concurrent",
        )
        assert result.optimal
        loser = result.member("branch_bound")
        if loser.proved_optimal:
            assert loser.depth == result.depth
        else:
            assert loser.error is not None
            assert "cancelled" in loser.error or "budget" in loser.error

    def test_external_cancel_skips_everything(self):
        token = RaceToken()
        token.set()
        result = solve_portfolio(
            figure_3(),
            members=MEMBERS,
            seed=SERVICE_SEED,
            race="concurrent",
            cancel=token,
        )
        # All members cancelled -> trivial fallback still yields a
        # valid partition.
        result.partition.validate(figure_3())
        assert result.winner == "trivial"
        for name in MEMBERS:
            assert result.member(name).skipped

    def test_external_cancel_skips_sequential_too(self):
        token = RaceToken()
        token.set()
        result = solve_portfolio(
            figure_3(),
            members=("packing:4", "sap"),
            seed=SERVICE_SEED,
            race="sequential",
            cancel=token,
        )
        result.partition.validate(figure_3())
        assert all(o.skipped for o in result.outcomes[:2])

    def test_race_token_chains_to_parent(self):
        parent = RaceToken()
        child = RaceToken(parent=parent)
        assert not child.is_set()
        parent.set()
        assert child.is_set()
        # Setting a child never propagates upward.
        other = RaceToken(parent=RaceToken())
        other.set()
        assert other.is_set()


class TestRaceMembers:
    def test_outcomes_in_spec_order(self):
        matrix = figure_1b()
        outcomes = race_members(
            matrix,
            ("sap", "branch_bound"),
            seeds={
                name: member_seed(SERVICE_SEED, name)
                for name in ("sap", "branch_bound")
            },
        )
        assert [o.name for o in outcomes] == ["sap", "branch_bound"]
        assert outcomes[0].proved_optimal

    def test_single_member_runs_inline(self):
        matrix = figure_3()
        before = threading.active_count()
        outcomes = race_members(matrix, ("sap",))
        assert threading.active_count() == before
        assert len(outcomes) == 1
        assert outcomes[0].proved_optimal

    def test_empty_race_is_empty(self):
        assert race_members(figure_3(), ()) == []

    def test_on_member_callback_order_sequential(self):
        seen = []
        solve_portfolio(
            figure_3(),
            members=("trivial", "packing:4", "sap"),
            seed=SERVICE_SEED,
            stop_when_optimal=False,
            on_member=lambda outcome: seen.append(outcome.name),
        )
        assert seen == ["trivial", "packing:4", "sap"]

    def test_on_member_callback_concurrent_covers_members(self):
        seen = []
        solve_portfolio(
            figure_3(),
            members=MEMBERS,
            seed=SERVICE_SEED,
            race="concurrent",
            on_member=lambda outcome: seen.append(outcome.name),
        )
        assert seen == list(MEMBERS)
