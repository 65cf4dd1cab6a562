"""``python -m repro scoreboard`` — run / diff / update-baseline / list.

The scoreboard CLI is the corpus subsystem's front door:

    python -m repro scoreboard run [--profile P | --smoke] [--baseline F]
    python -m repro scoreboard diff --baseline F [--max-slowdown X]
    python -m repro scoreboard update-baseline --baseline F [--include-timing]
    python -m repro scoreboard list [--profile P]

``run`` fans the corpus through the solver portfolio and prints the
per-instance score table; ``diff`` re-runs and exits 1 when the run
regresses against a checked-in baseline (the CI gate); ``update-
baseline`` rewrites the baseline byte-identically from a fresh run;
``list`` enumerates the registered families.  Exit codes follow the
rest of the CLI: 0 ok, 1 gate failure (regression, lower-bound
violation, corpus shrinkage), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import comma_list, open_cache, portfolio_flags
from repro.corpus.baseline import (
    baseline_from_report,
    diff_against_baseline,
    format_diff,
    load_baseline,
    write_baseline,
)
from repro.corpus.registry import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_PROFILE,
    PROFILES,
    build_corpus,
    family_names,
    get_family,
)
from repro.corpus.scoreboard import ScoreboardReport, run_scoreboard
from repro.utils.tables import format_table


def _resolve_profile(args: argparse.Namespace) -> str:
    """``--smoke`` is shorthand for ``--profile smoke`` (CI spelling)."""
    if getattr(args, "smoke", False):
        return "smoke"
    return args.profile


def _run(args: argparse.Namespace) -> ScoreboardReport:
    cache = open_cache(args)
    try:
        return run_scoreboard(
            families=args.families or None,
            profile=_resolve_profile(args),
            seed=args.seed,
            members=args.members,
            workers=args.workers,
            cache=cache,
            budget_per_instance=args.budget,
            race=args.race,
        )
    finally:
        if cache is not None:
            cache.flush()


def _print_report(report: ScoreboardReport) -> None:
    rows = [
        [
            row.case_id,
            row.family,
            f"{row.shape[0]}x{row.shape[1]}",
            row.depth,
            row.best_known,
            f"{row.ratio:.3f}",
            "yes" if row.optimal else "no",
            row.winner,
            "hit" if row.from_cache else "miss",
            f"{row.wall_seconds:.3f}s",
        ]
        for row in report.rows
    ]
    print(
        format_table(
            ["instance", "family", "shape", "depth", "best", "ratio",
             "optimal", "winner", "cache", "time"],
            rows,
            title=f"scoreboard — profile {report.profile}, seed "
            f"{report.seed}, members: {', '.join(report.members)}",
        )
    )
    print()
    summary = report.family_summary()
    print(
        format_table(
            ["family", "instances", "optimal", "mean ratio", "max ratio",
             "time"],
            [
                [
                    family,
                    entry["instances"],
                    entry["optimal"],
                    f"{entry['mean_ratio']:.3f}",
                    f"{entry['max_ratio']:.3f}",
                    f"{entry['wall_seconds']:.3f}s",
                ]
                for family, entry in summary.items()
            ],
            title=f"{len(report.rows)} instances across "
            f"{len(summary)} families in {report.wall_seconds:.2f}s",
        )
    )
    tally = report.tally
    if tally.solved:
        shares = ", ".join(
            f"{name} {tally.win_rate(name):.0%}" for name in tally.wins()
        )
        print(f"wins: {shares} ({tally.solved} fresh solves)")


def _write_json(path: str, report: ScoreboardReport) -> None:
    from repro.experiments.common import write_json

    write_json(path, report.as_dict())
    print(f"wrote {path}")


def cmd_scoreboard_run(args: argparse.Namespace) -> int:
    report = _run(args)
    _print_report(report)
    if args.json:
        _write_json(args.json, report)
    violations = report.lower_bound_violations()
    if violations:
        names = ", ".join(row.case_id for row in violations)
        print(
            f"error: depth below proven lower bound on: {names}",
            file=sys.stderr,
        )
        return 1
    if args.baseline:
        diff = diff_against_baseline(
            report,
            load_baseline(args.baseline),
            max_slowdown=args.max_slowdown,
        )
        print()
        print(format_diff(diff))
        if diff.failed:
            return 1
    return 0


def cmd_scoreboard_diff(args: argparse.Namespace) -> int:
    baseline = load_baseline(args.baseline)
    report = _run(args)
    diff = diff_against_baseline(
        report, baseline, max_slowdown=args.max_slowdown
    )
    print(format_diff(diff))
    return 1 if diff.failed else 0


def cmd_scoreboard_update(args: argparse.Namespace) -> int:
    report = _run(args)
    violations = report.lower_bound_violations()
    if violations:
        names = ", ".join(row.case_id for row in violations)
        print(
            f"error: refusing to bake a lower-bound violation into the "
            f"baseline ({names})",
            file=sys.stderr,
        )
        return 1
    payload = baseline_from_report(
        report, include_timing=args.include_timing
    )
    write_baseline(args.baseline, payload)
    print(
        f"wrote {args.baseline}: {len(report.rows)} instances, "
        f"profile {report.profile}, seed {report.seed}"
        + (" (with timing)" if args.include_timing else "")
    )
    return 0


def cmd_scoreboard_list(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    names = args.families or family_names()
    rows = []
    for name in names:
        family = get_family(name)
        instances = build_corpus([name], profile=profile, seed=args.seed)
        rows.append(
            [
                name,
                len(instances),
                ",".join(family.tags) or "-",
                family.description,
            ]
        )
    print(
        format_table(
            ["family", f"#{profile}", "tags", "description"],
            rows,
            title=f"registered corpus families (profile {profile}, "
            f"seed {args.seed})",
            align_right_from=99,
        )
    )
    return 0


def add_scoreboard_parser(sub) -> None:
    """Attach the ``scoreboard`` command tree to the top-level parser."""
    parser = sub.add_parser(
        "scoreboard",
        help="run the standing benchmark corpus and gate on regressions",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    board = parser.add_subparsers(dest="scoreboard_command", required=True)

    def corpus_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile", default=DEFAULT_PROFILE, choices=PROFILES,
            help=f"corpus size profile (default {DEFAULT_PROFILE})",
        )
        p.add_argument(
            "--smoke", action="store_true",
            help="shorthand for --profile smoke (the CI gate size)",
        )
        p.add_argument(
            "--families", type=comma_list, default=None,
            help="comma-separated family subset (default: all registered)",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)

    p_run = board.add_parser(
        "run", help="solve the corpus and print the score table"
    )
    corpus_flags(p_run)
    portfolio_flags(p_run)
    p_run.add_argument(
        "--baseline", default=None,
        help="also diff against this baseline (exit 1 on regression)",
    )
    p_run.add_argument(
        "--max-slowdown", type=float, default=None,
        help="fail instances slower than baseline timing by this factor "
        "(needs a baseline written with --include-timing)",
    )
    p_run.add_argument("--json", default=None, help="report output path")
    p_run.set_defaults(func=cmd_scoreboard_run)

    p_diff = board.add_parser(
        "diff", help="re-run and compare against a baseline (the CI gate)"
    )
    corpus_flags(p_diff)
    portfolio_flags(p_diff)
    p_diff.add_argument(
        "--baseline", required=True, help="baseline JSON to compare against"
    )
    p_diff.add_argument(
        "--max-slowdown", type=float, default=None,
        help="fail instances slower than baseline timing by this factor",
    )
    p_diff.set_defaults(func=cmd_scoreboard_diff)

    p_update = board.add_parser(
        "update-baseline",
        help="re-run and rewrite the baseline (byte-identical for a "
        "fixed profile/seed/members)",
    )
    corpus_flags(p_update)
    portfolio_flags(p_update)
    p_update.add_argument(
        "--baseline", required=True, help="baseline JSON to (re)write"
    )
    p_update.add_argument(
        "--include-timing", action="store_true",
        help="record wall times too (enables --max-slowdown diffs; the "
        "payload is no longer machine-independent)",
    )
    p_update.set_defaults(func=cmd_scoreboard_update)

    p_list = board.add_parser(
        "list", help="enumerate registered corpus families"
    )
    corpus_flags(p_list)
    p_list.set_defaults(func=cmd_scoreboard_list)
