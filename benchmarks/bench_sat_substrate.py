"""Substrate benchmarks: the CDCL SAT solver itself.

Not a paper artefact, but the oracle's speed bounds everything in
Figure 4; these keep the solver's performance visible (pigeonhole UNSAT
proofs, random 3-SAT, SAP's incremental narrowing, and SAP on every
quick-corpus instance that reaches the oracle).

SAP runs under both of its formulas.  The ``sap/<case>`` entries run
the paper's (``use_fooling_bound=False``: 1-cells in row-major order),
a fixed search on which solver speed is measured.  The
``sap-fooling/<case>`` entries run SAP's default, which raises the bound
to a maximum fooling set and numbers its cells first.

Every case is recorded in ``BENCH_sat.json`` (override the directory
with ``REPRO_BENCH_DIR``): the conflicts and propagations of its
``CdclSolver.solve`` calls, their process time, and the rates
conflicts/s and propagations/s — the numbers a speed-up of the solver
core must move while the counts stay put.  Times are the fastest of
:data:`REPEATS` runs.  The cold quick-corpus scoreboard run is recorded
as wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import pytest

from repro.corpus.registry import build_corpus
from repro.corpus.scoreboard import run_scoreboard
from repro.sat.instances import pigeonhole, random_ksat
from repro.sat.solver import CdclSolver, SolveStatus
from repro.solvers.sap import sap_solve

from _record import record_entry

REPEATS = 3


@dataclass
class CdclRun:
    """What the ``solve`` calls of one run added up to."""

    cpu_seconds: float = 0.0
    conflicts: int = 0
    propagations: int = 0


class CdclMeter:
    """Charges every ``CdclSolver.solve`` call to the current run."""

    def __init__(self) -> None:
        self.runs: List[CdclRun] = []

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as a new run."""
        self.runs.append(CdclRun())
        return fn()

    def entry(self) -> Dict[str, Any]:
        """The fastest run's numbers, and a fresh start for the next case.

        Every run of a case must have searched alike: same conflicts,
        same propagations.
        """
        assert len({(r.conflicts, r.propagations) for r in self.runs}) == 1
        best = min(self.runs, key=lambda run: run.cpu_seconds)
        self.runs = []
        return {
            "conflicts": best.conflicts,
            "propagations": best.propagations,
            "cpu_seconds": best.cpu_seconds,
            "conflicts_per_s": best.conflicts / best.cpu_seconds,
            "propagations_per_s": best.propagations / best.cpu_seconds,
        }


@pytest.fixture
def cdcl_meter(monkeypatch):
    meter = CdclMeter()
    solve = CdclSolver.solve

    def metered(solver, *args, **kwargs):
        run = meter.runs[-1]
        conflicts = solver.stats.conflicts
        propagations = solver.stats.propagations
        began = time.process_time()
        try:
            return solve(solver, *args, **kwargs)
        finally:
            run.cpu_seconds += time.process_time() - began
            run.conflicts += solver.stats.conflicts - conflicts
            run.propagations += solver.stats.propagations - propagations

    monkeypatch.setattr(CdclSolver, "solve", metered)
    return meter


@pytest.mark.parametrize("holes", [5, 6])
def test_pigeonhole_unsat(benchmark, cdcl_meter, holes):
    formula = pigeonhole(holes)

    def prove():
        solver = CdclSolver.from_formula(formula)
        return solver.solve()

    status = benchmark.pedantic(
        cdcl_meter.run, args=(prove,), rounds=REPEATS
    )
    assert status is SolveStatus.UNSAT
    record_entry("sat", f"pigeonhole-{holes}", cdcl_meter.entry())


@pytest.mark.parametrize("ratio", [3.0, 4.2])
def test_random_3sat(benchmark, cdcl_meter, root_seed, ratio):
    num_vars = 60
    formula = random_ksat(num_vars, int(num_vars * ratio), seed=root_seed)

    def solve():
        solver = CdclSolver.from_formula(formula)
        return solver.solve()

    status = benchmark.pedantic(
        cdcl_meter.run, args=(solve,), rounds=REPEATS
    )
    assert status in (SolveStatus.SAT, SolveStatus.UNSAT)
    entry = cdcl_meter.entry()
    benchmark.extra_info["clause_ratio"] = ratio
    benchmark.extra_info["conflicts"] = entry["conflicts"]
    record_entry("sat", f"random-3sat-60-{ratio}", entry)


def test_incremental_narrowing_pattern(benchmark, cdcl_meter):
    """The SAP access pattern: one encoding, repeated narrowing solves."""
    from repro.core.paper_matrices import figure_1b
    from repro.smt.encoder import DirectEncoder

    matrix = figure_1b()

    def descend():
        encoder = DirectEncoder(matrix, 6)
        statuses = [encoder.solve()]
        encoder.narrow_to(5)
        statuses.append(encoder.solve())
        encoder.narrow_to(4)
        statuses.append(encoder.solve())
        return statuses

    statuses = benchmark.pedantic(
        cdcl_meter.run, args=(descend,), rounds=REPEATS
    )
    assert statuses == [
        SolveStatus.SAT,
        SolveStatus.SAT,
        SolveStatus.UNSAT,
    ]
    record_entry("sat", "narrowing-figure1b", cdcl_meter.entry())


SAP_FORMULAS = {"sap": False, "sap-fooling": True}
"""Entry prefix -> ``use_fooling_bound``."""


def test_sap_on_quick_corpus(cdcl_meter, root_seed):
    """SAP (32 packing trials) under each formula, on each quick-corpus
    instance whose bounds do not meet the heuristic depth, so that the
    oracle runs; ``rand-10x10-occ0.5-1`` is the corpus's one hard UNSAT
    proof."""
    queried = {prefix: [] for prefix in SAP_FORMULAS}
    for instance in build_corpus(profile="quick", seed=root_seed):
        for prefix, fooling in SAP_FORMULAS.items():
            for _ in range(REPEATS):
                result = cdcl_meter.run(
                    lambda: sap_solve(
                        instance.matrix,
                        trials=32,
                        seed=root_seed,
                        use_fooling_bound=fooling,
                    )
                )
            if not result.queries:
                cdcl_meter.runs = []
                continue
            entry = cdcl_meter.entry()
            entry["queries"] = len(result.queries)
            entry["depth"] = result.depth
            entry["optimal"] = result.proved_optimal
            record_entry("sat", f"{prefix}/{instance.case_id}", entry)
            queried[prefix].append(instance.case_id)
    for cases in queried.values():
        assert "rand-10x10-occ0.5-1" in cases


def test_cold_quick_corpus(cdcl_meter, root_seed):
    """The quick corpus through the default portfolio, no cache."""
    walls = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        report = cdcl_meter.run(
            lambda: run_scoreboard(profile="quick", seed=root_seed)
        )
        walls.append(time.perf_counter() - began)
    entry = cdcl_meter.entry()
    entry["instances"] = len(report.rows)
    entry["wall_seconds"] = min(walls)
    record_entry("sat", "cold-quick-corpus", entry)
