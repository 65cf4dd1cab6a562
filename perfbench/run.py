"""The repo benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload scoreboard-quick --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs untraced and traced passes and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every answer is
checked (see ``pb_check``); any wrong or failed answer makes the
command exit with status 1.  Results, stamped with the commit and
machine, are written under ``.perfbench/``.

Run from the root of a checkout: the program is imported from its
``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

if (SRC / "repro" / "__init__.py").is_file() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pb_check  # noqa: E402
import pb_layers  # noqa: E402
import pb_report  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def outcome_problem(outcome: Any, expected: Dict[str, Any]) -> Optional[str]:
    """Why one outcome is a failure or a wrong answer, or None."""
    if outcome.error is not None:
        return outcome.error
    instance = outcome.instance
    return pb_check.answer_problem(
        expected[instance.case_id],
        depth=outcome.depth,
        optimal=outcome.optimal,
        lower_bound=instance.lower_bound or 0,
        matrix=instance.matrix,
        partition=outcome.partition,
    )


def check_outcomes(
    outcomes: Sequence[Any], expected: Dict[str, Any]
) -> List[str]:
    """One line per failed or wrong answer."""
    problems = []
    for outcome in outcomes:
        problem = outcome_problem(outcome, expected)
        if problem is not None:
            problems.append(f"{outcome.instance.case_id}: {problem}")
    return problems


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
def _in_process_segment(
    workload: str, rng: Any, expected: Dict[str, Any], *,
    deadline: Optional[float] = None, passes: Optional[int] = None,
) -> Any:
    return pb_workloads.run_scoreboard_passes(
        workload, pb_workloads.members(workload), rng,
        lambda outcome: outcome_problem(outcome, expected),
        deadline=deadline, passes=passes,
    )


def end_to_end(
    workload: str, seed: int, seconds: float, expected: Dict[str, Any]
) -> Tuple[Dict[str, float], Any, Dict[str, Any]]:
    """Untraced run: ``(metrics, segment, extra facts for the record)``."""
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    deadline = time.perf_counter() + seconds
    if workload == "gateway-mixed":
        segment = pb_workloads.run_gateway_rounds(rng, OUTPUT, deadline=deadline)
    else:
        segment = _in_process_segment(workload, rng, expected, deadline=deadline)
    setups = segment.setup_times
    attempted = len(segment.outcomes)
    answered = [o for o in segment.outcomes if o.error is None]
    # Every pass makes the same requests, in order.  Percentiles are
    # taken per pass and their median reported, like the rates: a slow
    # stretch of the host then moves one pass's tail, not the run's.
    # Each pass's timings are scaled by its host-speed scale first.
    per_pass = attempted // segment.passes
    latencies = [outcome.latency for outcome in segment.outcomes]
    passes = [
        latencies[start:start + per_pass]
        for start in range(0, attempted, per_pass)
    ]
    scales = segment.pass_scales
    pass_times = [t * s for t, s in zip(segment.pass_times, scales)]

    def scaled_percentile(q: float) -> float:
        return statistics.median(
            pb_report.percentile(p, q)[0] * s for p, s in zip(passes, scales)
        )

    metrics = {
        "setup_s": statistics.median(
            t * s for t, s in zip(setups, segment.setup_scales)
        ),
        "throughput_rps": per_pass / statistics.median(pass_times),
        "latency_p50_ms": scaled_percentile(50) * 1000.0,
        "latency_p95_ms": scaled_percentile(95) * 1000.0,
        "optimal_frac": sum(o.optimal for o in answered) / attempted,
        "mean_depth_ratio": (
            statistics.fmean(o.ratio for o in answered) if answered else 0.0
        ),
        "success_frac": 0.0,  # filled in once the answers are checked
        "peak_rss_mb": pb_report.peak_rss_mb(),
    }
    extra = {
        "latency_samples": len(latencies),
        "latency_samples_per_pass": per_pass,
        "latency_p95_beyond_per_pass": pb_report.percentile(passes[0], 95)[1],
        "highest_supported_percentile_per_pass": (
            pb_report.highest_supported_percentile(per_pass)
        ),
        "requests_per_pass": per_pass,
        "pass_times_s": segment.pass_times,
        "pass_scales": scales,
        "unscaled_throughput_rps": (
            per_pass / statistics.median(segment.pass_times)
        ),
        "setup_samples_s": setups,
        "setup_scales": segment.setup_scales,
    }
    return metrics, segment, extra


def per_layer(
    workload: str, seed: int, seconds: float, expected: Dict[str, Any]
) -> Tuple[Dict[str, float], List[Any], Dict[str, Any], Any]:
    """Untraced and traced passes; per-layer numbers from the traced.

    The two kinds of pass alternate, so both see the same drift in host
    speed.  Returns ``(metrics, segments, extra facts, tracer)``.
    """
    from importlib import import_module

    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    tracer = pb_trace.Tracer()
    gateway = workload == "gateway-mixed"
    scoreboard = import_module("repro.corpus.scoreboard")

    def one_pass(traced: bool) -> Any:
        if gateway:
            return pb_workloads.run_gateway_rounds(
                rng, OUTPUT, rounds=1, tracer=tracer if traced else None
            )
        if not traced:
            return _in_process_segment(workload, rng, expected, passes=1)
        pb_layers.install_solver_layers(tracer)
        tracer.patch(
            scoreboard, "run_scoreboard", "scoreboard",
            rid_of=lambda args, kwargs: kwargs["instances"][0].case_id,
        )
        try:
            return _in_process_segment(workload, rng, expected, passes=1)
        finally:
            tracer.restore()

    deadline = time.perf_counter() + seconds
    plain: List[Any] = []
    wrapped: List[Any] = []
    while True:
        began = time.perf_counter()
        plain.append(one_pass(traced=False))
        wrapped.append(one_pass(traced=True))
        if time.perf_counter() + (time.perf_counter() - began) / 2 >= deadline:
            break
    untraced = pb_workloads.merge(plain)
    traced = pb_workloads.merge(wrapped)
    serve: Dict[str, float] = {}
    if gateway:
        answered = [o for o in traced.outcomes if o.error is None]
        serve = {
            "hit_ms_p50": pb_layers.median_ms(
                [o.latency for o in answered if o.from_cache]
            ),
            "miss_overhead_ms_p50": pb_layers.median_ms(
                [o.latency - o.server_wall for o in answered if not o.from_cache]
            ),
            "ping_ms_p50": pb_layers.median_ms(traced.pings),
            "rejected": traced.rejected / traced.passes,
            "worker_crashes": traced.worker_crashes / traced.passes,
        }
    metrics = pb_layers.per_layer_metrics(
        tracer.spans,
        tracer.counters,
        passes=traced.passes,
        windows=traced.pass_windows,
        main_pid=tracer.pid,
        traced_pass_s=statistics.median(traced.pass_times),
        untraced_pass_s=statistics.median(untraced.pass_times),
        serve=serve,
    )
    extra = {
        "traced_pass_times_s": traced.pass_times,
        "untraced_pass_times_s": untraced.pass_times,
        "spans": len(tracer.spans),
    }
    return metrics, [untraced, traced], extra, tracer


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parse(argv: Sequence[str]) -> argparse.Namespace:

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=pb_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Sequence[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    expected = pb_check.load_expected(pb_check.EXPECTED_PATH)[args.workload]
    pb_check.check_pool(pb_workloads.build_pool(args.workload), expected)

    if args.trace:
        metrics, segments, extra, tracer = per_layer(
            args.workload, args.seed, args.seconds, expected
        )
        units = pb_layers.PER_LAYER_UNITS
    else:
        metrics, segment, extra = end_to_end(
            args.workload, args.seed, args.seconds, expected
        )
        segments, tracer, units = [segment], None, pb_report.END_TO_END_UNITS
    outcomes = [o for segment in segments for o in segment.outcomes]
    problems = check_outcomes(outcomes, expected)
    attempted, failed = len(outcomes), len(problems)
    if not args.trace:
        metrics["success_frac"] = (attempted - failed) / attempted

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.dump(OUTPUT / "traces" / f"{tag}.jsonl")
    record = {
        "stamp": pb_report.stamp(
            ROOT, workload=args.workload, seed=args.seed, trace=bool(args.trace)
        ),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "facts": extra,
    }
    pb_report.write_json(OUTPUT / "results" / f"{tag}.json", record)

    print(json.dumps(record["stamp"], sort_keys=True))
    for problem in problems[:20]:
        print(f"WRONG {problem}")
    for name, value in sorted(extra.items()):
        print(f"  {name:<32} {value}")
    for name in units:
        print(f"{name:<32} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
