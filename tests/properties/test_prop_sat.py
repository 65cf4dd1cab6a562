"""Property-based tests for the SAT substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.brute import brute_force_model
from repro.sat.dimacs import parse_dimacs, to_dimacs
from repro.sat.formula import CnfFormula
from repro.sat.instances import random_ksat
from repro.sat.proof import ProofLog, check_refutation
from repro.sat.solver import CdclSolver, SolveStatus


@st.composite
def cnf_formulas(draw, max_vars=9, max_clauses=30):
    num_vars = draw(st.integers(1, max_vars))
    formula = CnfFormula()
    formula.new_vars(num_vars)
    num_clauses = draw(st.integers(0, max_clauses))
    for _ in range(num_clauses):
        width = draw(st.integers(1, 4))
        clause = [
            draw(st.integers(1, num_vars)) * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        formula.add_clause(clause)
    return formula


def literals(num_vars):
    return st.builds(
        lambda var, sign: var * sign,
        st.integers(1, num_vars),
        st.sampled_from([1, -1]),
    )


@st.composite
def clause_batches(draw, max_vars=8, max_batches=4, max_clauses=12):
    """A variable count and batches of clauses to add between solves."""
    num_vars = draw(st.integers(1, max_vars))
    clause = st.lists(literals(num_vars), min_size=1, max_size=4)
    batches = draw(
        st.lists(
            st.lists(clause, max_size=max_clauses),
            min_size=1,
            max_size=max_batches,
        )
    )
    return num_vars, batches


def is_sat(num_vars, clauses):
    formula = CnfFormula()
    formula.new_vars(num_vars)
    for clause in clauses:
        formula.add_clause(clause)
    return brute_force_model(formula) is not None


def satisfies(model, clauses):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


class TestSolverProperties:
    @given(cnf_formulas())
    @settings(max_examples=80)
    def test_agrees_with_brute_force(self, formula):
        expected_sat = brute_force_model(formula) is not None
        log = ProofLog()
        solver = CdclSolver.from_formula(formula, proof=log)
        status = solver.solve()
        assert (status is SolveStatus.SAT) == expected_sat
        if status is SolveStatus.SAT:
            model = solver.model()
            for clause in formula.clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)
        else:
            check_refutation(log)

    @given(cnf_formulas(max_vars=6, max_clauses=15))
    @settings(max_examples=40)
    def test_solve_is_repeatable(self, formula):
        solver = CdclSolver.from_formula(formula)
        first = solver.solve()
        second = solver.solve()
        assert first == second

    @given(cnf_formulas())
    @settings(max_examples=40)
    def test_dimacs_round_trip(self, formula):
        parsed = parse_dimacs(to_dimacs(formula))
        assert parsed.num_vars == formula.num_vars
        assert parsed.clauses == formula.clauses

    @given(cnf_formulas(max_vars=6, max_clauses=12), st.data())
    @settings(max_examples=40)
    def test_assumptions_consistent_with_added_units(self, formula, data):
        """solve(assumptions) == solve() of formula + unit clauses."""
        assumption_count = data.draw(st.integers(0, 2))
        assumptions = [
            data.draw(st.integers(1, formula.num_vars))
            * data.draw(st.sampled_from([1, -1]))
            for _ in range(assumption_count)
        ]
        with_units = CnfFormula()
        with_units.new_vars(formula.num_vars)
        for clause in formula.clauses:
            with_units.add_clause(clause)
        for lit in assumptions:
            with_units.add_clause([lit])
        expected_sat = brute_force_model(with_units) is not None
        solver = CdclSolver.from_formula(formula)
        status = solver.solve(assumptions)
        assert (status is SolveStatus.SAT) == expected_sat

    @given(clause_batches())
    @settings(max_examples=60)
    def test_incremental_solves_agree_with_brute_force(self, problem):
        """Clauses added between solves; every UNSAT is a checked proof."""
        num_vars, batches = problem
        log = ProofLog()
        solver = CdclSolver(proof=log)
        solver.new_vars(num_vars)
        clauses = []
        for batch in batches:
            for clause in batch:
                solver.add_clause(clause)
            clauses.extend(batch)
            status = solver.solve()
            assert (status is SolveStatus.SAT) == is_sat(num_vars, clauses)
            if status is SolveStatus.SAT:
                assert satisfies(solver.model(), clauses)
            else:
                check_refutation(log)

    @given(clause_batches(max_vars=7, max_batches=1), st.data())
    @settings(max_examples=60)
    def test_core_is_an_inconsistent_subset_of_the_assumptions(
        self, problem, data
    ):
        num_vars, (clauses,) = problem
        assumptions = data.draw(
            st.lists(literals(num_vars), min_size=1, max_size=4)
        )
        log = ProofLog()
        solver = CdclSolver(proof=log)
        solver.new_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        status = solver.solve(assumptions)
        units = [[lit] for lit in assumptions]
        assert (status is SolveStatus.SAT) == is_sat(num_vars, clauses + units)
        if status is SolveStatus.UNSAT:
            if solver.unsat_due_to_assumptions:
                core = solver.core()
                assert set(core) <= set(assumptions)
                core_units = [[lit] for lit in core]
                assert not is_sat(num_vars, clauses + core_units)
            else:
                assert not is_sat(num_vars, clauses)
        # The assumptions leave no trace on the next solve.
        status = solver.solve()
        assert (status is SolveStatus.SAT) == is_sat(num_vars, clauses)
        if status is SolveStatus.UNSAT:
            check_refutation(log)

    @given(
        st.integers(9, 12),
        st.floats(8.5, 11.0),
        st.integers(0, 2**16),
        st.integers(2, 6),
    )
    @settings(max_examples=60)
    def test_learned_clause_reduction_keeps_answers(
        self, num_vars, ratio, seed, max_learned
    ):
        """Near-threshold random 4-SAT under a tiny learned-clause limit,
        so that ``_reduce_db`` deletes clauses mid-search in many
        examples (random 3-SAT this small rarely learns enough)."""
        formula = random_ksat(
            num_vars, int(ratio * num_vars), k=4, seed=seed
        )
        log = ProofLog()
        solver = CdclSolver.from_formula(
            formula, max_learned=max_learned, proof=log
        )
        status = solver.solve()
        assert (status is SolveStatus.SAT) == (
            brute_force_model(formula) is not None
        )
        if status is SolveStatus.SAT:
            assert satisfies(solver.model(), formula.clauses)
        else:
            check_refutation(log)
