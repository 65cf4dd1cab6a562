"""Unit and fuzz tests for the CDCL SAT solver."""

import random

import pytest

from repro.core.exceptions import SolverError
from repro.sat.brute import brute_force_model
from repro.sat.formula import CnfFormula
from repro.sat.solver import CdclSolver, SolveStatus, luby


class TestLuby:
    def test_prefix(self):
        assert [luby(1, i) for i in range(9)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]

    def test_base_scaling(self):
        assert luby(100, 2) == 200


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert CdclSolver().solve() is SolveStatus.SAT

    def test_unit_propagation(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([-a, b])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(a) and s.model_value(b)

    def test_simple_unsat(self):
        s = CdclSolver()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a])
        assert s.solve() is SolveStatus.UNSAT

    def test_empty_clause_is_unsat(self):
        s = CdclSolver()
        s.new_var()
        assert not s.add_clause([])
        assert s.solve() is SolveStatus.UNSAT

    def test_tautological_clause_ignored(self):
        s = CdclSolver()
        a = s.new_var()
        assert s.add_clause([a, -a])
        assert s.solve() is SolveStatus.SAT

    def test_duplicate_literals_collapse(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, a, b])
        s.add_clause([-a])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(b)

    def test_invalid_literal_rejected(self):
        s = CdclSolver()
        with pytest.raises(SolverError):
            s.add_clause([0])
        with pytest.raises(SolverError):
            s.add_clause([5])

    def test_model_unavailable_before_sat(self):
        s = CdclSolver()
        s.new_var()
        with pytest.raises(SolverError):
            s.model_value(1)

    def test_model_unknown_variable(self):
        s = CdclSolver()
        a = s.new_var()
        s.add_clause([a])
        s.solve()
        with pytest.raises(SolverError):
            s.model_value(7)

    def test_model_dict(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([-b])
        assert s.solve() is SolveStatus.SAT
        assert s.model() == {a: True, b: False}


class TestUnsatInstances:
    def test_xor_chain_unsat(self):
        """x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable."""
        s = CdclSolver()
        x = [s.new_var() for _ in range(3)]
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            s.add_clause([x[a], x[b]])
            s.add_clause([-x[a], -x[b]])
        assert s.solve() is SolveStatus.UNSAT

    def test_pigeonhole_4_into_3(self):
        s = CdclSolver()
        holes = 3
        var = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
        for pigeon in var:
            s.add_clause(pigeon)
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    s.add_clause([-var[p1][h], -var[p2][h]])
        assert s.solve() is SolveStatus.UNSAT
        assert s.stats.conflicts > 0


class TestBudgets:
    def test_conflict_budget_returns_unknown(self):
        s = CdclSolver()
        holes = 7
        var = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
        for pigeon in var:
            s.add_clause(pigeon)
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    s.add_clause([-var[p1][h], -var[p2][h]])
        assert s.solve(conflict_budget=5) is SolveStatus.UNKNOWN
        # Solver stays usable and eventually proves UNSAT.
        assert s.solve() is SolveStatus.UNSAT

    def test_time_budget_zero_returns_quickly(self):
        s = CdclSolver()
        holes = 8
        var = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
        for pigeon in var:
            s.add_clause(pigeon)
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    s.add_clause([-var[p1][h], -var[p2][h]])
        status = s.solve(time_budget=0.0)
        assert status in (SolveStatus.UNKNOWN, SolveStatus.UNSAT)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a]) is SolveStatus.SAT
        assert s.model_value(b)

    def test_conflicting_assumptions(self):
        s = CdclSolver()
        a = s.new_var()
        assert s.solve([a, -a]) is SolveStatus.UNSAT
        assert s.unsat_due_to_assumptions
        # No permanent damage:
        assert s.solve() is SolveStatus.SAT

    def test_assumption_against_unit(self):
        s = CdclSolver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve([-a]) is SolveStatus.UNSAT
        assert s.solve() is SolveStatus.SAT

    def test_incremental_growth(self):
        s = CdclSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve() is SolveStatus.SAT
        s.add_clause([-a])
        s.add_clause([-b, c])
        assert s.solve() is SolveStatus.SAT
        assert s.model_value(b) and s.model_value(c)
        s.add_clause([-c])
        assert s.solve() is SolveStatus.UNSAT

    def test_clause_addition_mid_search_rejected(self):
        # White-box: simulate being mid-search by pushing a level.
        s = CdclSolver()
        s.new_var()
        s._new_decision_level()
        with pytest.raises(SolverError):
            s.add_clause([1])
        s._backtrack(0)


class TestVsids:
    def test_rescale_keeps_branching_on_the_latest_bumps(self):
        s = CdclSolver()
        s.new_vars(3)
        s._var_inc = 6e99
        s._bump_vars([1, 2])
        s._bump_vars([2])  # past 1e100: every activity is rescaled
        assert s._pick_branch_var() == 2


class TestFuzzAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 10)
            clause_count = rng.randint(1, 38)
            formula = CnfFormula()
            formula.new_vars(n)
            for _ in range(clause_count):
                width = rng.randint(1, 4)
                clause = [
                    rng.choice([1, -1]) * rng.randint(1, n)
                    for _ in range(width)
                ]
                formula.add_clause(clause)
            expected = brute_force_model(formula) is not None
            solver = CdclSolver.from_formula(formula)
            status = solver.solve()
            assert (status is SolveStatus.SAT) == expected
            if status is SolveStatus.SAT:
                model = solver.model()
                for clause in formula.clauses:
                    assert any(
                        model[abs(lit)] == (lit > 0) for lit in clause
                    )

    def test_incremental_fuzz(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 8)
            solver = CdclSolver()
            solver.new_vars(n)
            reference = CnfFormula()
            reference.new_vars(n)
            for _phase in range(3):
                for _ in range(rng.randint(1, 10)):
                    width = rng.randint(1, 3)
                    clause = [
                        rng.choice([1, -1]) * rng.randint(1, n)
                        for _ in range(width)
                    ]
                    reference.add_clause(clause)
                    solver.add_clause(clause)
                expected = brute_force_model(reference) is not None
                assert (solver.solve() is SolveStatus.SAT) == expected
                if not expected:
                    break


class TestStats:
    def test_counters_move(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.solve()
        assert s.stats.solve_calls == 1
        assert s.stats.decisions >= 1
        stats = s.stats.as_dict()
        assert set(stats) >= {"conflicts", "decisions", "propagations"}
