"""Pins the CDCL search: the full ``SolverStats`` of fixed solves.

Every expected dict below was recorded with the solver as it stood
before its hot paths were rewritten for speed.  A rewrite that keeps
the order of every watch list, the keys of every heap push and the
restart and reduction schedules runs the same search and reproduces
these counters exactly; one that changes the search moves at least one
of them.  The activity rescale only fires past about 4,500 conflicts,
which none of these solves reaches.
"""

from __future__ import annotations

import pytest

from repro.core.paper_matrices import figure_1b
from repro.corpus.registry import build_corpus
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


SAP_CASES = {
    "gap-10x10-p2-4": _stats(409, 725, 29528, 3, 403, 0),
    "gap-10x10-p2-8": _stats(146, 288, 9467, 1, 138, 0),
}


@pytest.mark.parametrize("case_id", sorted(SAP_CASES))
def test_sap_search_is_pinned(case_id, monkeypatch):
    instance = {
        inst.case_id: inst
        for inst in build_corpus(["table1-gap"], profile="quick", seed=2024)
    }[case_id]
    encoders = []
    make_encoder = oracle_module.make_encoder

    def recording(*args, **kwargs):
        encoders.append(make_encoder(*args, **kwargs))
        return encoders[-1]

    monkeypatch.setattr(oracle_module, "make_encoder", recording)
    result = sap_solve(instance.matrix, trials=32, seed=2024)
    assert (result.depth, result.proved_optimal) == (10, True)
    assert [enc.solver.stats.as_dict() for enc in encoders] == [
        SAP_CASES[case_id]
    ]
