"""Command-line interface: solve patterns and compile schedules.

Usage (also installed as ``python -m repro``):

    python -m repro rank PATTERN_FILE [--budget SECONDS]
    python -m repro solve PATTERN_FILE [--heuristic-only] [--trials N]
    python -m repro solve-batch PATTERN_FILE [...] [--workers N] [--cache-dir D]
    python -m repro serve [--socket PATH] [--workers N] [--cache-dir DIR]
    python -m repro gateway [--host H] [--port P] [--tenants FILE]
    python -m repro submit PATTERN_FILE [...] [--socket PATH | --connect tcp://H:P]
    python -m repro health [--socket PATH | --connect tcp://H:P]
    python -m repro scoreboard {run|diff|update-baseline|list} [--smoke]
    python -m repro cache {stats|gc|prewarm} DIR [--max-bytes N] [...]
    python -m repro lint [PATHS...] [--format json] [--update-baseline]
    python -m repro compile PATTERN_FILE [--theta T] [--vacancy-char C]
    python -m repro bounds PATTERN_FILE
    python -m repro audit PATTERN_FILE [--budget SECONDS]
    python -m repro legalize PATTERN_FILE [--max-row-tones N] [...]
    python -m repro render PATTERN_FILE OUTPUT.svg
    python -m repro examples

A pattern file holds one row per line using '0'/'1' (and optionally a
vacancy character, default '*', for ``compile``, which then exploits the
vacancies as don't-cares).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.atoms.array import QubitArray
from repro.atoms.compiler import compile_addressing
from repro.atoms.simulator import AddressingSimulator
from repro.completion.masked import MaskedMatrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import rank_lower_bound, trivial_upper_bound
from repro.core.fooling import fooling_number
from repro.core.render import render_matrix, render_partition, render_side_by_side
from repro.server.engine import EXECUTOR_KINDS
from repro.service.portfolio import DEFAULT_PORTFOLIO
from repro.solvers.row_packing import PackingOptions, row_packing
from repro.solvers.sap import SapOptions, sap_solve


def _read_lines(path: str) -> List[str]:
    if path == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    with open(path) as stream:
        return [line.strip() for line in stream if line.strip()]


def _read_pattern(path: str) -> BinaryMatrix:
    return BinaryMatrix.from_strings(_read_lines(path))


def cmd_rank(args: argparse.Namespace) -> int:
    matrix = _read_pattern(args.pattern)
    result = sap_solve(
        matrix,
        options=SapOptions(
            trials=args.trials, seed=args.seed, time_budget=args.budget
        ),
    )
    print(f"shape:        {matrix.num_rows}x{matrix.num_cols}")
    print(f"ones:         {matrix.count_ones()}")
    print(f"real rank:    {rank_lower_bound(matrix)}")
    print(f"fooling:      {fooling_number(matrix, max_cells=96)}")
    print(f"trivial ub:   {trivial_upper_bound(matrix)}")
    if result.proved_optimal:
        print(f"binary rank:  {result.depth} (proven)")
    else:
        print(
            f"binary rank:  in [{result.lower_bound}, {result.depth}] "
            f"(budget exhausted)"
        )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    matrix = _read_pattern(args.pattern)
    if args.heuristic_only:
        partition = row_packing(
            matrix,
            options=PackingOptions(trials=args.trials, seed=args.seed),
        )
        proved = partition.depth <= rank_lower_bound(matrix)
    else:
        result = sap_solve(
            matrix,
            options=SapOptions(
                trials=args.trials, seed=args.seed, time_budget=args.budget
            ),
        )
        partition = result.partition
        proved = result.proved_optimal
    print(
        f"depth {partition.depth}"
        + (" (proven optimal)" if proved else " (upper bound)")
    )
    print(
        render_side_by_side(
            render_matrix(matrix), render_partition(partition, matrix)
        )
    )
    return 0


def cmd_solve_batch(args: argparse.Namespace) -> int:
    from repro.experiments.common import write_json
    from repro.service.batch import solve_batch
    from repro.utils.tables import format_table

    items = [(path, _read_pattern(path)) for path in args.patterns]
    cache = open_cache(args)
    records = solve_batch(
        items,
        members=args.members,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        budget_per_instance=args.budget,
    )
    rows = [
        [
            record.case_id,
            f"{record.result.partition.shape[0]}x"
            f"{record.result.partition.shape[1]}",
            record.depth,
            record.result.winner,
            "yes" if record.result.optimal else "no",
            "hit" if record.from_cache else "miss",
            f"{record.result.wall_seconds:.3f}s",
        ]
        for record in records
    ]
    print(
        format_table(
            ["pattern", "shape", "depth", "winner", "optimal", "cache", "time"],
            rows,
            title=f"portfolio batch — {len(records)} instances, "
            f"{args.workers} worker(s), members: {', '.join(args.members)}",
        )
    )
    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses "
            f"-> {args.cache_dir}"
        )
    if args.json:
        write_json(args.json, [record.provenance() for record in records])
        print(f"wrote {args.json}")
    return 0


def open_cache(args: argparse.Namespace):
    """The ``--cache-dir`` cache (``None`` runs uncached)."""
    from repro.service.cache import ResultCache

    return ResultCache.sharded(args.cache_dir) if args.cache_dir else None


def _traffic_policy(args: argparse.Namespace):
    """Shared tenancy/admission resolution for serve/gateway.

    ``AdmissionController`` gets only the limits given, so its own
    defaults and checks apply.  The TCP front always runs admission
    control: unbounded queues are exactly what it exists to prevent.
    """
    from repro.server.tenancy import AdmissionController, TenantRegistry

    tenants = (
        TenantRegistry.from_file(args.tenants) if args.tenants else None
    )
    limits = {
        name: getattr(args, name)
        for name in ("max_in_flight", "max_waiting")
        if getattr(args, name) is not None
    }
    admission = None
    if limits or args.command == "gateway":
        admission = AdmissionController(**limits)
    return tenants, admission


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` (unix socket) and ``gateway`` (TCP): one front."""
    import asyncio

    from repro.server.engine import AsyncSolveEngine
    from repro.server.gateway import SolveGateway, default_socket_path

    cache = open_cache(args)
    try:
        tenants, admission = _traffic_policy(args)
        if args.command == "gateway":
            address = {"host": args.host, "port": args.port}
        else:
            address = {"socket_path": args.socket or default_socket_path()}

        def banner(gateway) -> None:
            # After bind, so --port 0 advertises the real ephemeral port.
            if gateway.socket_path is None:
                where = f"gateway on {gateway.host}:{gateway.port}"
                target = f"--connect tcp://{gateway.host}:{gateway.port}"
            else:
                where = f"serving on {gateway.socket_path}"
                target = f"--socket {gateway.socket_path}"
            print(
                f"{where} (workers={args.workers}, "
                f"executor={args.executor}, "
                f"members: {', '.join(args.members)}); "
                f"submit with: python -m repro submit PATTERN {target}",
                flush=True,
            )

        engine = AsyncSolveEngine(
            members=args.members,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
            budget_per_instance=args.budget,
            executor=args.executor,
        )
        gateway = SolveGateway(
            engine, **address, tenants=tenants, admission=admission
        )
        try:
            asyncio.run(gateway.run(on_ready=banner))
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        if cache is not None:
            cache.flush()


def _front_address(args: argparse.Namespace) -> str:
    """The front that ``submit`` and ``health`` talk to."""
    from repro.server.gateway import default_socket_path

    return args.connect or args.socket or default_socket_path()


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.experiments.common import write_json
    from repro.server import client
    from repro.utils.tables import format_table

    address = _front_address(args)
    retry = None
    if args.retries:
        retry = client.RetryPolicy(max_attempts=args.retries + 1)
    options = {}
    if args.members:
        options["members"] = args.members
    if args.seed is not None:
        options["seed"] = args.seed
    if args.budget is not None:
        options["budget_per_instance"] = args.budget
    if args.tenant:
        options["tenant"] = args.tenant
    if args.key:
        options["key"] = args.key
    if args.priority is not None:
        options["priority"] = args.priority
    records = []
    cases = [(path, _read_pattern(path)) for path in args.patterns]
    for event in client.submit(
        address, cases, timeout=args.timeout, retry=retry, **options
    ):
        kind = event.get("event")
        case_id = event.get("case_id", "")
        if kind == "member_finished":
            depth = event.get("depth")
            print(
                f"  {case_id}: {event.get('member')} -> "
                f"{'depth ' + str(depth) if depth is not None else 'no result'}"
            )
        elif kind == "done":
            records.append(event)
            source = "cache" if event.get("from_cache") else "solved"
            if event.get("degraded"):
                source += ", degraded"
            if event.get("retried"):
                source += ", retried"
            print(f"{case_id}: depth {event.get('depth')} ({source})")
        elif kind == "worker_crashed":
            print(
                f"  {case_id}: worker crashed, retrying "
                f"({event.get('error')})"
            )
        elif kind == "client_retry":
            print(
                f"  reconnecting (attempt {event.get('attempt')}, "
                f"{event.get('remaining')} case(s) left): "
                f"{event.get('reason')}",
                file=sys.stderr,
            )
        elif kind in ("cancelled", "failed"):
            records.append(event)
            print(f"{case_id}: {kind} ({event.get('error')})")
        elif kind in ("queued", "started"):
            print(f"  {case_id}: {kind}")
    done = [e for e in records if e.get("event") == "done"]
    rows = [
        [
            event.get("case_id"),
            event.get("depth"),
            event.get("provenance", {}).get("winner", "-"),
            "yes" if event.get("provenance", {}).get("optimal") else "no",
            "hit" if event.get("from_cache") else "miss",
        ]
        for event in done
    ]
    if rows:
        print(
            format_table(
                ["pattern", "depth", "winner", "optimal", "cache"],
                rows,
                title=f"daemon batch — {len(done)}/{len(records)} solved",
            )
        )
    if args.json:
        write_json(args.json, [event.get("provenance") for event in done])
        print(f"wrote {args.json}")
    return 0 if len(done) == len(records) else 1


def cmd_health(args: argparse.Namespace) -> int:
    """Probe a running front's health op (exit 0 only when ready)."""
    import json as json_module

    from repro.server import client

    payload = client.request_once(
        _front_address(args), {"op": "health"}, timeout=args.timeout
    )
    print(json_module.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload.get("status") == "ready" else 1


def cmd_compile(args: argparse.Namespace) -> int:
    lines = _read_lines(args.pattern)
    vacancy = args.vacancy_char
    has_vacancies = any(vacancy in line for line in lines)
    if has_vacancies:
        masked = MaskedMatrix.from_strings(
            [line.replace(vacancy, "*") for line in lines]
        )
        target = masked.ones_matrix
        vacancies = list(masked.dont_care_matrix.ones())
        array = QubitArray.with_vacancies(
            target.num_rows, target.num_cols, vacancies
        )
    else:
        target = BinaryMatrix.from_strings(lines)
        array = QubitArray.full(target.num_rows, target.num_cols)

    result = compile_addressing(
        array,
        target,
        theta=args.theta,
        strategy="packing" if args.heuristic_only else "sap",
        exploit_vacancies=has_vacancies,
        trials=args.trials,
        seed=args.seed,
        time_budget=args.budget,
    )
    report = AddressingSimulator(array).verify(result.schedule, target)
    print(f"depth {result.depth}; {report.summary()}")
    for step, operation in enumerate(result.schedule):
        config = operation.configuration
        print(
            f"  step {step}: rows {sorted(config.rows)} "
            f"cols {sorted(config.cols)} Rz({operation.pulse.theta})"
        )
    return 0 if report.ok else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    matrix = _read_pattern(args.pattern)
    from repro.core.bounds import binary_rank_bounds

    small = matrix.num_rows <= 12 and matrix.num_cols <= 12
    bounds = binary_rank_bounds(
        matrix, use_fooling=True, use_lp=small, seed=args.seed
    )
    print(f"shape:            {matrix.num_rows}x{matrix.num_cols}")
    print(f"rank bound:       {bounds.rank_bound}   (Eq. 3)")
    print(f"fooling bound:    {bounds.fooling_bound}")
    if bounds.lp_bound is not None:
        print(f"LP cover bound:   {bounds.lp_bound}   (fractional cover)")
    else:
        print("LP cover bound:   skipped (matrix too large)")
    print(f"trivial upper:    {bounds.upper}")
    print(f"bracket:          [{bounds.lower}, {bounds.upper}]"
          + ("  TIGHT" if bounds.is_tight else ""))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.reductions import reduce_matrix
    from repro.sat.proof import proof_stats
    from repro.smt.oracle import RankDecisionOracle, descend
    from repro.utils.timing import Deadline

    matrix = _read_pattern(args.pattern)
    best = row_packing(
        matrix, options=PackingOptions(trials=args.trials, seed=args.seed)
    )
    lower = rank_lower_bound(matrix)
    if best.depth <= lower:
        print(
            f"binary rank {best.depth} certified by Eq. 3 alone; "
            "no SAT proof needed"
        )
        return 0
    reduced = reduce_matrix(matrix)
    oracle = RankDecisionOracle(reduced.matrix, proof=True)

    def accept(partition):
        partition = reduced.lift(partition)
        partition.validate(matrix)
        return partition

    best, proved = descend(
        oracle, best, lower, accept, deadline=Deadline(args.budget)
    )
    if not proved:
        print(f"budget exhausted; binary rank in [{lower}, {best.depth}]")
        return 1
    print(f"binary rank: {best.depth}")
    if oracle.proof_log is not None and oracle.proof_log.refuted:
        stats = proof_stats(oracle.proof_log)
        oracle.verify_refutation()
        print(
            f"UNSAT certificate verified: {stats['axioms']} axioms, "
            f"{stats['learned']} learned clauses"
        )
    else:
        print("optimality by Eq. 3 bound (no UNSAT step required)")
    return 0


def cmd_legalize(args: argparse.Namespace) -> int:
    from repro.atoms.constraints import AodConstraints
    from repro.atoms.legalize import legalize_schedule
    from repro.atoms.schedule import AddressingSchedule

    matrix = _read_pattern(args.pattern)
    partition = row_packing(
        matrix, options=PackingOptions(trials=args.trials, seed=args.seed)
    )
    schedule = AddressingSchedule.from_partition(partition, theta=args.theta)
    constraints = AodConstraints(
        max_row_tones=args.max_row_tones,
        max_col_tones=args.max_col_tones,
        min_row_spacing=args.min_row_spacing,
        min_col_spacing=args.min_col_spacing,
        max_total_tones=args.max_total_tones,
    )
    result = legalize_schedule(schedule, constraints)
    array = QubitArray.full(*matrix.shape)
    report = AddressingSimulator(array).verify(result.schedule, matrix)
    print(f"ideal depth:     {result.original_depth}")
    print(f"legal depth:     {result.depth}  ({result.inflation:.2f}x)")
    print(f"split steps:     {result.split_operations}")
    print(f"verification:    {report.summary()}")
    return 0 if report.ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    from repro.viz.figures import partition_figure

    matrix = _read_pattern(args.pattern)
    result = sap_solve(
        matrix,
        options=SapOptions(
            trials=args.trials, seed=args.seed, time_budget=args.budget
        ),
    )
    title = (
        f"depth-{result.depth} partition"
        + (" (optimal)" if result.proved_optimal else " (upper bound)")
    )
    canvas = partition_figure(
        matrix,
        result.partition,
        with_fooling=matrix.count_ones() <= 96,
        title=title,
    )
    canvas.write(args.output)
    print(f"wrote {args.output} ({title})")
    return 0


def cmd_examples(_args: argparse.Namespace) -> int:
    print(__doc__)
    print("Bundled runnable examples:")
    for name in (
        "quickstart",
        "row_packing_trace",
        "neutral_atom_addressing",
        "ftqc_two_level",
        "qldpc_memory",
        "cover_vs_partition",
        "aod_hardware_limits",
        "proof_audit",
        "vacancy_dont_cares",
        "tensor_rank_search",
        "render_figures",
    ):
        print(f"  python examples/{name}.py")
    return 0


def comma_list(text: str) -> Tuple[str, ...]:
    """The argparse type of every ``--members`` and ``--families`` flag:
    comma-separated names, empty ones dropped."""
    return tuple(name for name in text.split(",") if name)


def portfolio_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every command that runs the portfolio on a cache."""
    p.add_argument(
        "--members", type=comma_list, default=DEFAULT_PORTFOLIO,
        help="comma-separated portfolio members (default "
        f"{','.join(DEFAULT_PORTFOLIO)})",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget per instance (seconds; default unlimited)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="sharded result-cache directory (safe to share between "
        "concurrent runners; a single-file JSON cache at this path is "
        "migrated in place)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("pattern", help="pattern file, or '-' for stdin")
        p.add_argument("--trials", type=int, default=32)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument(
            "--budget", type=float, default=30.0,
            help="wall-clock budget for the whole command, in seconds "
            "(default 30)",
        )

    p_rank = sub.add_parser("rank", help="bounds and exact binary rank")
    common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_solve = sub.add_parser("solve", help="compute a rectangle partition")
    common(p_solve)
    p_solve.add_argument("--heuristic-only", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser(
        "solve-batch",
        help="run the solver portfolio over many patterns",
    )
    p_batch.add_argument(
        "patterns", nargs="+", help="pattern files (one instance each)"
    )
    p_batch.add_argument("--seed", type=int, default=2024)
    portfolio_flags(p_batch)
    p_batch.add_argument("--json", default=None, help="provenance output path")
    p_batch.set_defaults(func=cmd_solve_batch)

    def server_flags(p: argparse.ArgumentParser) -> None:
        """Engine + traffic-policy flags shared by serve and gateway."""
        portfolio_flags(p)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument(
            "--executor", default="thread", choices=EXECUTOR_KINDS,
            help="solve in threads (live cancel) or on worker processes "
            "(multi-core; member events stream back over each worker's "
            "pipe)",
        )
        p.add_argument(
            "--tenants", default=None,
            help="JSON tenancy config: per-tenant priority, quota, key "
            "(see repro.server.tenancy.TenantRegistry.from_mapping)",
        )
        p.add_argument(
            "--max-in-flight", type=int, default=None,
            help="admission window: concurrent requests before queueing",
        )
        p.add_argument(
            "--max-waiting", type=int, default=None,
            help="admission queue bound; beyond it requests are rejected "
            "with a retry_after hint",
        )

    p_serve = sub.add_parser(
        "serve",
        help="long-lived streaming solve front on a unix socket",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="unix socket path (default: $XDG_RUNTIME_DIR/repro-solve-UID.sock)",
    )
    server_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway",
        help="multi-tenant TCP front: quotas, priorities, admission control",
    )
    p_gateway.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default loopback; terminate TLS upstream "
        "before exposing further)",
    )
    p_gateway.add_argument(
        "--port", type=int, default=7341,
        help="TCP port (default 7341; 0 binds an ephemeral port)",
    )
    server_flags(p_gateway)
    p_gateway.set_defaults(func=cmd_serve)

    def front_flags(p: argparse.ArgumentParser) -> None:
        """Where ``submit`` and ``health`` find a running front."""
        p.add_argument(
            "--socket", default=None,
            help="unix socket path of a `repro serve` front (default: "
            "$XDG_RUNTIME_DIR/repro-solve-UID.sock)",
        )
        p.add_argument(
            "--connect", default=None,
            help="TCP gateway address (tcp://host:port); overrides --socket",
        )

    p_submit = sub.add_parser(
        "submit",
        help="stream patterns through a running solve front",
    )
    p_submit.add_argument(
        "patterns", nargs="+", help="pattern files (one instance each)"
    )
    front_flags(p_submit)
    p_submit.add_argument(
        "--tenant", default=None,
        help="tenant identity for quota/priority accounting",
    )
    p_submit.add_argument(
        "--key", default=None, help="tenant shared key, if configured"
    )
    p_submit.add_argument(
        "--priority", type=int, default=None,
        help="priority class for this request (lower = served sooner; "
        "clamped to the tenant's configured class)",
    )
    p_submit.add_argument(
        "--members", type=comma_list, default=None,
        help="comma-separated member override for this request",
    )
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget per instance (seconds)",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-read socket timeout (seconds)",
    )
    p_submit.add_argument(
        "--retries", type=int, default=0,
        help="retry transient failures (connection loss, saturation) "
        "up to N times with backoff, resuming unfinished cases",
    )
    p_submit.add_argument("--json", default=None, help="provenance output path")
    p_submit.set_defaults(func=cmd_submit)

    p_health = sub.add_parser(
        "health",
        help="probe a running front: ready / degraded / draining",
    )
    front_flags(p_health)
    p_health.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout (seconds)",
    )
    p_health.set_defaults(func=cmd_health)

    from repro.corpus.cli import add_scoreboard_parser

    add_scoreboard_parser(sub)

    from repro.server.cache_cli import add_cache_parser

    add_cache_parser(sub)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)

    p_compile = sub.add_parser(
        "compile", help="compile and verify an AOD schedule"
    )
    common(p_compile)
    p_compile.add_argument("--theta", type=float, default=1.0)
    p_compile.add_argument("--heuristic-only", action="store_true")
    p_compile.add_argument(
        "--vacancy-char", default="*",
        help="character marking vacant sites (default '*')",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_bounds = sub.add_parser(
        "bounds", help="all lower/upper bounds without exact solving"
    )
    common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_audit = sub.add_parser(
        "audit", help="exact rank with a verified UNSAT certificate"
    )
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_legalize = sub.add_parser(
        "legalize", help="legalize a schedule under AOD constraints"
    )
    common(p_legalize)
    p_legalize.add_argument("--theta", type=float, default=1.0)
    p_legalize.add_argument("--max-row-tones", type=int, default=None)
    p_legalize.add_argument("--max-col-tones", type=int, default=None)
    p_legalize.add_argument("--min-row-spacing", type=int, default=1)
    p_legalize.add_argument("--min-col-spacing", type=int, default=1)
    p_legalize.add_argument("--max-total-tones", type=int, default=None)
    p_legalize.set_defaults(func=cmd_legalize)

    p_render = sub.add_parser(
        "render", help="render the optimal partition as an SVG figure"
    )
    common(p_render)
    p_render.add_argument("output", help="output SVG path")
    p_render.set_defaults(func=cmd_render)

    p_examples = sub.add_parser("examples", help="list bundled examples")
    p_examples.set_defaults(func=cmd_examples)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.exceptions import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        # Missing pattern files, bad specs, unreachable servers: one
        # clean diagnostic and exit 2, never a traceback.
        message = str(error)
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            message += f" (retry after {retry_after:g}s)"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
