"""Pins the CDCL search: the full ``SolverStats`` of fixed solves.

Every expected dict below was recorded with the solver as it stood
before its hot paths were rewritten for speed.  A rewrite that keeps
the order of every watch list, the keys of every heap push and the
restart and reduction schedules runs the same search and reproduces
these counters exactly; one that changes the search moves at least one
of them.  The activity rescale only fires past about 4,500 conflicts,
which none of these solves reaches.

The SAP pins come in two sets.  ``SAP_CASES`` runs the paper's
formula, recorded before SAP seeded its encoding with a fooling set;
``SAP_FOOLING_CASES`` runs SAP's default, recorded when that seeding
landed.

The completion and cover pins were recorded while each of those
problems still had its own label encoder and descent loop.  They find
their solvers through ``CdclSolver`` itself, so they pin the formula
and the search whichever encoder builds it.
"""

from __future__ import annotations

import pytest

from repro.completion import MaskedMatrix, masked_minimum_addressing
from repro.core.binary_matrix import BinaryMatrix
from repro.core.paper_matrices import figure_1b
from repro.corpus.registry import build_corpus
from repro.cover import minimum_cover
from repro.sat.instances import pigeonhole, random_ksat
from repro.sat.solver import CdclSolver, SolveStatus
from repro.smt import oracle as oracle_module
from repro.smt.encoder import DirectEncoder
from repro.solvers.sap import sap_solve


def _stats(conflicts, decisions, propagations, restarts, learned, deleted,
           solve_calls=1):
    return {
        "conflicts": conflicts,
        "decisions": decisions,
        "propagations": propagations,
        "restarts": restarts,
        "learned_clauses": learned,
        "deleted_clauses": deleted,
        "solve_calls": solve_calls,
    }


FORMULAS = {
    "php5": (
        lambda: CdclSolver.from_formula(pigeonhole(5)),
        SolveStatus.UNSAT,
        _stats(151, 184, 1808, 1, 145, 0),
    ),
    "php6": (
        lambda: CdclSolver.from_formula(pigeonhole(6)),
        SolveStatus.UNSAT,
        _stats(723, 894, 9051, 5, 719, 0),
    ),
    "php6-reduced": (
        lambda: CdclSolver.from_formula(pigeonhole(6), max_learned=100),
        SolveStatus.UNSAT,
        _stats(799, 949, 9938, 5, 794, 342),
    ),
    # A deletion that reorders its watch lists changes this search; the
    # one above, at max_learned=100, happens not to notice.
    "php6-reduced-50": (
        lambda: CdclSolver.from_formula(pigeonhole(6), max_learned=50),
        SolveStatus.UNSAT,
        _stats(759, 952, 9427, 5, 752, 295),
    ),
    "3sat-60-3.0": (
        lambda: CdclSolver.from_formula(random_ksat(60, 180, seed=2024)),
        SolveStatus.SAT,
        _stats(1, 24, 65, 0, 1, 0),
    ),
    "3sat-60-4.2": (
        lambda: CdclSolver.from_formula(random_ksat(60, 252, seed=2024)),
        SolveStatus.SAT,
        _stats(105, 150, 1754, 1, 104, 0),
    ),
    "3sat-80-4.3-reduced": (
        lambda: CdclSolver.from_formula(
            random_ksat(80, 344, seed=2024), max_learned=100
        ),
        SolveStatus.UNSAT,
        _stats(272, 330, 5181, 2, 266, 46),
    ),
}


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_formula_search_is_pinned(name):
    build, status, stats = FORMULAS[name]
    solver = build()
    assert solver.solve() is status
    assert solver.stats.as_dict() == stats


def test_narrowing_descent_is_pinned():
    encoder = DirectEncoder(figure_1b(), 6)
    statuses = [encoder.solve()]
    encoder.narrow_to(5)
    statuses.append(encoder.solve())
    encoder.narrow_to(4)
    statuses.append(encoder.solve())
    assert statuses == [SolveStatus.SAT, SolveStatus.SAT, SolveStatus.UNSAT]
    assert encoder.solver.stats.as_dict() == _stats(11, 21, 510, 0, 7, 0, 3)


# SAP with the paper's formula: the Eq. 3 bound, 1-cells in row-major
# order.
SAP_CASES = {
    "gap-10x10-p2-4": _stats(409, 725, 29528, 3, 403, 0),
    "gap-10x10-p2-8": _stats(146, 288, 9467, 1, 138, 0),
}
# SAP as it runs by default: a maximum fooling set raises the bound and
# its cells are numbered first.  Each case still ends in one UNSAT query.
SAP_FOOLING_CASES = {
    "gap-10x10-p2-4": _stats(4, 5, 923, 0, 1, 0),
    "gap-10x10-p2-8": _stats(0, 0, 396, 0, 0, 0),
    "rand-10x10-occ0.5-1": _stats(751, 1020, 84344, 5, 747, 0),
}


def _sap_encoder_stats(case_id, monkeypatch, **options):
    matrix = {
        inst.case_id: inst
        for inst in build_corpus(None, profile="quick", seed=2024)
    }[case_id].matrix
    encoders = []
    make_encoder = oracle_module.make_encoder

    def recording(*args, **kwargs):
        encoders.append(make_encoder(*args, **kwargs))
        return encoders[-1]

    monkeypatch.setattr(oracle_module, "make_encoder", recording)
    result = sap_solve(matrix, trials=32, seed=2024, **options)
    assert (result.depth, result.proved_optimal) == (10, True)
    return [enc.solver.stats.as_dict() for enc in encoders]


@pytest.mark.parametrize("case_id", sorted(SAP_CASES))
def test_sap_search_is_pinned(case_id, monkeypatch):
    stats = _sap_encoder_stats(case_id, monkeypatch, use_fooling_bound=False)
    assert stats == [SAP_CASES[case_id]]


@pytest.mark.parametrize("case_id", sorted(SAP_FOOLING_CASES))
def test_fooling_first_sap_search_is_pinned(case_id, monkeypatch):
    stats = _sap_encoder_stats(case_id, monkeypatch)
    assert stats == [SAP_FOOLING_CASES[case_id]]


def _record_solves(monkeypatch):
    """Keep every CdclSolver built and the status of every solve, in
    order, whichever encoder built the solver."""
    solvers, statuses = [], []
    init, solve = CdclSolver.__init__, CdclSolver.solve

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    def recording_solve(self, *args, **kwargs):
        statuses.append(solve(self, *args, **kwargs))
        return statuses[-1]

    monkeypatch.setattr(CdclSolver, "__init__", recording_init)
    monkeypatch.setattr(CdclSolver, "solve", recording_solve)
    return solvers, statuses


def _stripe_dont_cares(matrix):
    """Don't-cares on the 0s of ``matrix`` with ``(i + 2j) % 5 == 0``."""
    rows, cols = matrix.shape
    return BinaryMatrix(
        [
            sum(
                1 << j
                for j in range(cols)
                if (i + 2 * j) % 5 == 0 and not (matrix.row_mask(i) >> j) & 1
            )
            for i in range(rows)
        ],
        cols,
    )


SAT, UNSAT = SolveStatus.SAT, SolveStatus.UNSAT

# case: (heuristic depth, solve statuses, depth, SolverStats).  The
# descent asks at one below the best depth so far, so each list below
# reads as its queries' bounds: from the heuristic depth down by one.
COMPLETION_CASES = {
    # queries: 9 SAT, 8 UNSAT
    "gap-10x10-p2-4": (10, [SAT, UNSAT], 9,
                       _stats(1037, 1733, 93207, 7, 1028, 0, 2)),
}
COVER_CASES = {
    # queries: 9 SAT, 8 SAT, 7 UNSAT
    "rand-10x10-occ0.5-1": (10, [SAT, SAT, UNSAT], 8,
                            _stats(496, 855, 34362, 3, 492, 0, 3)),
    # queries: 5 SAT, 4 UNSAT
    "fool-complement-8": (6, [SAT, UNSAT], 5,
                          _stats(514, 800, 28026, 3, 508, 0, 2)),
}


@pytest.mark.parametrize("case_id", sorted(COMPLETION_CASES))
def test_completion_search_is_pinned(case_id, monkeypatch):
    matrix = {
        inst.case_id: inst
        for inst in build_corpus(["table1-gap"], profile="quick", seed=2024)
    }[case_id].matrix
    masked = MaskedMatrix(matrix, _stripe_dont_cares(matrix))
    solvers, statuses = _record_solves(monkeypatch)
    outcome = masked_minimum_addressing(masked, trials=2, seed=2024)
    heuristic, expected_statuses, depth, stats = COMPLETION_CASES[case_id]
    assert outcome.heuristic_depth == heuristic
    assert statuses == expected_statuses
    assert (outcome.depth, outcome.proved_optimal) == (depth, True)
    assert len(outcome.queries) == len(expected_statuses)
    assert [s.stats.as_dict() for s in solvers if s.stats.solve_calls] == [
        stats
    ]


@pytest.mark.parametrize("case_id", sorted(COVER_CASES))
def test_cover_search_is_pinned(case_id, monkeypatch):
    matrix = {
        inst.case_id: inst
        for inst in build_corpus(None, profile="quick", seed=2024)
    }[case_id].matrix
    solvers, statuses = _record_solves(monkeypatch)
    result = minimum_cover(matrix, trials=1, seed=2024)
    heuristic, expected_statuses, depth, stats = COVER_CASES[case_id]
    assert result.heuristic_depth == heuristic
    assert statuses == expected_statuses
    assert (result.depth, result.proved_optimal) == (depth, True)
    assert len(result.queries) == len(expected_statuses)
    assert [s.stats.as_dict() for s in solvers if s.stats.solve_calls] == [
        stats
    ]
