"""Regenerate ``expected.json``: the answer to every pool instance.

    python3 perfbench/make_expected.py

Solves each workload's pool once, through the same ``run_scoreboard``
call and solve seed the benchmark uses, and records depth, ``optimal``,
the lower bound (the instance's own bound or the Eq. 3 rank bound,
whichever is larger) and a digest of the matrix.  Run it only when a
change is meant to alter answers, and say so in the change.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pb_check  # noqa: E402
import pb_workloads  # noqa: E402


def expected_answers(workload: str) -> dict:
    from repro.corpus.scoreboard import run_scoreboard

    pool = pb_workloads.build_pool(workload)
    report = run_scoreboard(
        instances=pool,
        members=pb_workloads.members(workload),
        seed=pb_workloads.POOL_SEED,
    )
    answers = {}
    for instance, row in zip(pool, report.rows):
        if workload == "gateway-mixed" and not row.optimal:
            # Fresh requests are re-seeded every round; only a proved
            # optimum is the same answer under every seed.
            raise SystemExit(f"{instance.case_id}: not proved optimal")
        answers[instance.case_id] = pb_check.Expected(
            depth=row.depth,
            optimal=row.optimal,
            lower_bound=row.lower_bound,
            digest=pb_check.matrix_digest(instance.matrix),
        )
    return answers


def main() -> int:
    workloads = {
        workload: expected_answers(workload)
        for workload in pb_workloads.WORKLOADS
    }
    pb_check.write_expected(
        pb_check.EXPECTED_PATH, workloads, pb_workloads.POOL_SEED
    )
    for workload, answers in workloads.items():
        print(f"{workload}: {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
