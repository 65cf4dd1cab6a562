"""Unit tests for cardinality encodings (at-most-one, exactly-one)."""

import pytest

from repro.core.exceptions import EncodingError
from repro.sat.brute import brute_force_count
from repro.sat.cardinality import (
    at_least_one,
    at_most_one,
    at_most_one_pairwise,
    at_most_one_sequential,
    exactly_one,
)
from repro.sat.formula import CnfFormula
from repro.sat.solver import CdclSolver, SolveStatus


def count_models_projected(formula: CnfFormula, num_original: int) -> int:
    """Count satisfying assignments projected onto the first
    ``num_original`` variables (aux vars may allow multiple extensions —
    a correct AMO encoding admits >= 1 extension per legal projection)."""
    solver = CdclSolver.from_formula(formula)
    projections = set()
    while solver.solve() is SolveStatus.SAT:
        model = solver.model()
        projection = tuple(model[v] for v in range(1, num_original + 1))
        projections.add(projection)
        solver.add_clause(
            [
                (-v if model[v] else v)
                for v in range(1, num_original + 1)
            ]
        )
    return len(projections)


@pytest.mark.parametrize(
    "encoder",
    [at_most_one_pairwise, at_most_one_sequential],
    ids=["pairwise", "sequential"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_at_most_one_model_count(encoder, n):
    formula = CnfFormula()
    lits = formula.new_vars(n)
    encoder(formula, lits)
    # Legal projections: all-false plus n one-hot assignments.
    assert count_models_projected(formula, n) == n + 1


def _exactly_one_with(at_most):
    def encode(sink, literals):
        at_least_one(sink, literals)
        at_most(sink, literals)

    return encode


# "auto" is exactly_one itself: pairwise up to six literals, sequential
# above, so the sizes lie on both sides of the boundary.
@pytest.mark.parametrize(
    "encoding",
    [
        _exactly_one_with(at_most_one_pairwise),
        _exactly_one_with(at_most_one_sequential),
        exactly_one,
    ],
    ids=["pairwise", "sequential", "auto"],
)
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_exactly_one_model_count(encoding, n):
    formula = CnfFormula()
    lits = formula.new_vars(n)
    encoding(formula, lits)
    assert count_models_projected(formula, n) == n


@pytest.mark.parametrize("n,clauses,aux", [(6, 15, 0), (7, 17, 6)])
def test_at_most_one_size_rule(n, clauses, aux):
    """Pairwise up to six literals, the sequential ladder above."""
    formula = CnfFormula()
    lits = formula.new_vars(n)
    at_most_one(formula, lits)
    assert (len(formula.clauses), formula.num_vars - n) == (clauses, aux)


def test_at_least_one_empty_rejected():
    with pytest.raises(EncodingError):
        at_least_one(CnfFormula(), [])


def test_at_most_one_with_negated_literals():
    formula = CnfFormula()
    a, b = formula.new_vars(2)
    at_most_one(formula, [-a, -b])
    # at most one of {~a, ~b} true -> at least one of {a, b} true
    solver = CdclSolver.from_formula(formula)
    assert solver.solve([-a, -b]) is SolveStatus.UNSAT
    assert solver.solve([a, -b]) is SolveStatus.SAT


def test_brute_force_count_agrees_for_pairwise():
    # pairwise adds no aux vars, so raw model count is exact
    formula = CnfFormula()
    lits = formula.new_vars(4)
    at_most_one_pairwise(formula, lits)
    assert brute_force_count(formula) == 5
