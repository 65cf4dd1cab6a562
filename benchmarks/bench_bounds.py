"""Lower-bound instruments: Eq. 3 rank vs fooling sets vs the LP bound.

SAP terminates when the bound meets the oracle; tighter lower bounds
mean fewer (or no) UNSAT proofs.  This benchmark measures both the cost
and the tightness of the three bounds on the families where they
differ: random (rank is near-tight), gap (rank is slack by
construction), and crown matrices (rank n vs logarithmic cover bounds).

It also times the exact rank on the paper-scale matrices the
``heuristic-large`` workload solves: the five 100x100 ``table1-rand``
occupancies and the full ``scale-sweep`` family.  ``rank_over_q``
answers a matrix from its rank over GF(2) when that meets the bound,
and otherwise eliminates matrices of 32x32 and up modulo primes; the
Bareiss path is what it replaced there.  Each group's ``rank/`` entry
counts the matrices the GF(2) certificate settled (``null`` when the
``src`` under test predates it).  Beside it, a ``trivial/`` entry times
the rest of the set-up: ``reduce_matrix`` (Section III-B's removal of
empty and duplicate rows and columns, which the modular path and SAP
run) and the ``trivial`` member's ``trivial_partition``.

Every case is recorded in ``BENCH_bounds.json`` (override the directory
with ``REPRO_BENCH_DIR``).  A bound's cost is the fastest of
:data:`REPEATS` process-time runs.  The two rank paths run one after the
other within each of :data:`REPEATS` repetitions, and so do
``reduce_matrix`` and ``trivial_partition``; each time recorded is the
median over the repetitions.  A shared host's speed drifts between
repetitions, and timing the two paths side by side moves them alike, so
the ``rank/`` entry's ``speedup`` is the median of the per-repetition
ratios Bareiss / ``rank_over_q``, with their interquartile range
``speedup_iqr``.  The Bareiss path is the fixed reference, so the ratio
compares commits run at different times.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Tuple

import pytest

from repro.benchgen.gap import gap_matrix
from repro.benchgen.random_matrices import random_nonempty_matrix
from repro.benchgen.suite import LARGE_OCCUPANCIES, random_suite
from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import fooling_lower_bound, rank_lower_bound
from repro.core.reductions import reduce_matrix
from repro.corpus.registry import get_family
from repro.cover.lp import lp_lower_bound
from repro.linalg.exact_rank import _bareiss_rank, _to_int_rows, rank_over_q
from repro.solvers.branch_bound import binary_rank_branch_bound
from repro.solvers.trivial import trivial_partition
from repro.utils.rng import spawn_seeds

from _record import record_entry

try:
    from repro.linalg.exact_rank import _gf2_certified_rank
except ImportError:  # an older src, run for comparison
    _gf2_certified_rank = None

REPEATS = 9

BOUNDS = {
    "rank": rank_lower_bound,
    "fooling": lambda m: fooling_lower_bound(m, seed=0),
    "lp": lp_lower_bound,
}


def _interleaved(
    *fns: Callable[[], Any]
) -> Tuple[List[Any], List[List[float]]]:
    """Each ``fn()`` and its process times over :data:`REPEATS`
    repetitions, every repetition running the ``fns`` in turn."""
    times: List[List[float]] = [[] for _ in fns]
    for _ in range(REPEATS):
        results = []
        for fn, spent in zip(fns, times):
            began = time.process_time()
            results.append(fn())
            spent.append(time.process_time() - began)
    return results, times


def _family(name, root_seed, count):
    seeds = spawn_seeds(root_seed, count, salt=f"bounds-{name}")
    if name == "random":
        return [
            random_nonempty_matrix(7, 7, 0.5, seed=s) for s in seeds
        ]
    if name == "gap":
        return [gap_matrix(7, 7, 2, seed=s) for s in seeds]
    if name == "crown":
        return [
            BinaryMatrix.from_rows(
                [[1 if i != j else 0 for j in range(n)] for i in range(n)]
            )
            for n in range(3, 3 + count)
        ]
    raise ValueError(name)


@pytest.mark.parametrize("family", ["random", "gap", "crown"])
@pytest.mark.parametrize("bound_name", sorted(BOUNDS))
def test_bound_cost(benchmark, root_seed, scale, family, bound_name):
    count = 8 if scale == "paper" else 4
    matrices = _family(family, root_seed, count)
    bound = BOUNDS[bound_name]

    def run():
        return sum(bound(matrix) for matrix in matrices)

    (total,), (times,) = benchmark.pedantic(_interleaved, args=(run,), rounds=1)
    cpu_seconds = min(times)
    benchmark.extra_info["family"] = family
    benchmark.extra_info["bound"] = bound_name
    benchmark.extra_info["total_bound"] = total
    record_entry(
        "bounds",
        f"{family}/{bound_name}",
        {"matrices": count, "total_bound": total, "cpu_seconds": cpu_seconds},
    )


def _heuristic_large_groups(root_seed):
    """``(name, matrices)`` of each group the ``heuristic-large``
    workload draws from."""
    large = random_suite((100, 100), LARGE_OCCUPANCIES, 10, seed=root_seed)
    for occupancy in LARGE_OCCUPANCIES:
        yield f"table1-rand-100x100-occ{occupancy:g}", [
            case.matrix
            for case in large
            if case.params["occupancy"] == occupancy
        ]
    sweep = get_family("scale-sweep").build("full", root_seed)
    yield "scale-sweep-full", [instance.matrix for instance in sweep]


def test_rank_paths_on_heuristic_large(root_seed):
    """Eq. 3 by ``rank_over_q`` and by the Bareiss path, same ranks;
    then the CPU time of ``reduce_matrix`` and ``trivial_partition``."""
    for name, matrices in _heuristic_large_groups(root_seed):
        (ranks, reference), (rank_cpu, bareiss_cpu) = _interleaved(
            lambda: [rank_over_q(m) for m in matrices],
            lambda: [_bareiss_rank(_to_int_rows(m)) for m in matrices],
        )
        assert ranks == reference
        speedups = [b / r for b, r in zip(bareiss_cpu, rank_cpu)]
        low, _, high = statistics.quantiles(speedups, n=4)
        certified = None
        if _gf2_certified_rank is not None:
            certified = sum(
                _gf2_certified_rank(m) is not None for m in matrices
            )
        record_entry(
            "bounds",
            f"rank/{name}",
            {
                "shapes": sorted({"x".join(map(str, m.shape)) for m in matrices}),
                "ranks": ranks,
                "gf2_certified": certified,
                "repeats": REPEATS,
                "rank_over_q_cpu_s": statistics.median(rank_cpu),
                "bareiss_cpu_s": statistics.median(bareiss_cpu),
                "speedup": statistics.median(speedups),
                "speedup_iqr": high - low,
            },
        )
        (_, depths), (reduce_cpu, trivial_cpu) = _interleaved(
            lambda: [reduce_matrix(m) for m in matrices],
            lambda: [trivial_partition(m).depth for m in matrices],
        )
        record_entry(
            "bounds",
            f"trivial/{name}",
            {
                "depths": depths,
                "repeats": REPEATS,
                "reduce_matrix_cpu_s": statistics.median(reduce_cpu),
                "trivial_partition_cpu_s": statistics.median(trivial_cpu),
            },
        )


def test_bound_tightness(scale, root_seed):
    """Quality check (not timed): bound <= r_B always; record the gaps."""
    count = 3 if scale != "paper" else 6
    for family in ("random", "gap"):
        for matrix in _family(family, root_seed, count):
            truth = binary_rank_branch_bound(matrix).binary_rank
            for name, bound in BOUNDS.items():
                value = bound(matrix)
                assert value <= truth, (
                    f"{name} bound {value} exceeds r_B={truth} on {family}"
                )
