#!/usr/bin/env python3
"""Quickstart: depth-optimal addressing of the paper's Figure 1 pattern.

Takes the 6x6 target pattern from Figure 1b, computes a depth-optimal
rectangle partition with SAP, compiles it into an AOD schedule, and
verifies the schedule on a simulated atom array.

Run:  python examples/quickstart.py
"""

from repro import (
    AddressingSimulator,
    QubitArray,
    compile_addressing,
    fooling_number,
    rank_lower_bound,
)
from repro.core.paper_matrices import figure_1b
from repro.core.render import render_matrix, render_partition, render_side_by_side


def main() -> None:
    pattern = figure_1b()
    print("Target pattern (Figure 1b of the paper):")
    print(render_matrix(pattern))
    print()
    print(f"real rank (Eq. 3 lower bound): {rank_lower_bound(pattern)}")
    print(f"fooling number:                {fooling_number(pattern)}")
    print()

    array = QubitArray.full(*pattern.shape)
    result = compile_addressing(
        array, pattern, theta=0.5, strategy="sap", trials=32, seed=2024
    )

    print(
        f"SAP found a partition of depth {result.depth} "
        f"({'proven optimal' if result.proved_optimal else 'not proven'}):"
    )
    print(
        render_side_by_side(
            render_matrix(pattern),
            render_partition(result.partition, pattern),
        )
    )
    print()

    print("Compiled AOD schedule:")
    for step, operation in enumerate(result.schedule):
        config = operation.configuration
        print(
            f"  step {step}: rows {sorted(config.rows)}, "
            f"cols {sorted(config.cols)}, Rz({operation.pulse.theta})"
        )

    report = AddressingSimulator(array).verify(result.schedule, pattern)
    print()
    print(f"simulation: {report.summary()}")

    batch_demo()
    scoreboard_demo()
    streaming_demo()
    gateway_demo()


def batch_demo() -> None:
    """Many patterns at once: the portfolio service.

    ``solve_batch`` runs heuristics and the exact backend per instance,
    fans instances across worker processes, and caches results by matrix
    content — re-solving the same pattern is a dictionary lookup.  The
    same service backs ``python -m repro solve-batch``.
    """
    from repro import ResultCache, solve_batch
    from repro.core.paper_matrices import equation_2, figure_1b, figure_3

    print()
    print("Batch solving via the portfolio service:")
    cache = ResultCache(capacity=64)
    patterns = [
        ("figure_1b", figure_1b()),
        ("equation_2", equation_2()),
        ("figure_3", figure_3()),
    ]
    for attempt in ("cold", "warm"):
        records = solve_batch(
            patterns,
            members=("trivial", "packing:8", "sap"),
            seed=2024,
            workers=2,
            cache=cache,
        )
        for record in records:
            result = record.result
            print(
                f"  [{attempt}] {record.case_id}: depth {result.depth} "
                f"(winner {result.winner}, "
                f"{'optimal' if result.optimal else 'upper bound'}, "
                f"{'cache hit' if result.from_cache else 'solved'})"
            )


def scoreboard_demo() -> None:
    """The standing benchmark corpus and the solver scoreboard.

    ``build_corpus`` enumerates named, seeded instance families — the
    paper's worked matrices, Table-I ensembles, adversarial fooling-set
    instances, FTQC structure matrices, scale sweeps — and
    ``run_scoreboard`` fans them through the portfolio and scores every
    instance against the best depth anything has ever proven for it.
    The same engine backs ``python -m repro scoreboard run --smoke``,
    whose ``diff`` mode gates CI against a checked-in baseline
    (``baselines/scoreboard_smoke.json``).
    """
    from repro import build_corpus, run_scoreboard

    print()
    print("Scoring the smoke corpus on the solver scoreboard:")
    corpus = build_corpus(profile="smoke", seed=2024)
    families = sorted(set(inst.family for inst in corpus))
    print(f"  {len(corpus)} instances from {len(families)} families:")
    print(f"    {', '.join(families)}")
    report = run_scoreboard(
        profile="smoke", seed=2024, members=("trivial", "packing:8", "sap")
    )
    for family, entry in report.family_summary().items():
        print(
            f"  {family}: {entry['instances']} instances, "
            f"{entry['optimal']} optimal, "
            f"mean depth ratio {entry['mean_ratio']:.3f}"
        )
    shares = ", ".join(
        f"{name} {report.tally.win_rate(name):.0%}"
        for name in report.tally.wins()
    )
    print(f"  per-solver wins: {shares}")


def streaming_demo() -> None:
    """Results as they finish: the async streaming engine.

    ``solve_batch`` barriers on the whole batch; the server layer's
    :class:`AsyncSolveEngine` streams per-instance events instead —
    ``queued``, ``started``, one ``member_finished`` per portfolio
    member, then ``done`` — so a caller can act on fast instances while
    slow ones are still solving.  The same engine backs ``python -m
    repro serve`` / ``submit``.
    """
    import asyncio

    from repro import AsyncSolveEngine
    from repro.core.paper_matrices import equation_2, figure_1b, figure_3

    print()
    print("Streaming the same patterns through the async engine:")
    patterns = [
        ("figure_1b", figure_1b()),
        ("equation_2", equation_2()),
        ("figure_3", figure_3()),
    ]

    async def run() -> None:
        async with AsyncSolveEngine(
            members=("trivial", "packing:8", "sap"),
            seed=2024,
            workers=2,
        ) as engine:
            async for event in engine.stream(patterns):
                if event.kind == "member_finished":
                    depth = "-" if event.depth is None else event.depth
                    print(
                        f"    {event.case_id}: {event.member} -> {depth}"
                    )
                elif event.kind == "done":
                    result = event.record.result
                    print(
                        f"  [done] {event.case_id}: depth {result.depth} "
                        f"(winner {result.winner}, "
                        f"{'optimal' if result.optimal else 'upper bound'})"
                    )

    asyncio.run(run())


def gateway_demo() -> None:
    """Remote, multi-tenant solving: the TCP gateway.

    ``python -m repro gateway`` fronts one shared engine for many
    remote clients: each request carries a tenant identity, competes
    under priority-aware admission control, and spends against a
    rolling per-tenant compute quota.  A saturated gateway answers with
    a structured ``retry_after`` error instead of queueing unboundedly,
    and a ``metrics`` op reports queue depth, per-tenant usage, cache
    hit rate, and per-solver win rates.  Here the gateway runs on a
    background thread; in production it is its own process (the client
    connects with ``--connect tcp://host:port``).
    """
    import asyncio
    import threading
    import time

    from repro.core.paper_matrices import equation_2, figure_1b
    from repro.server import AsyncSolveEngine, SolveGateway
    from repro.server import client as gateway_client

    print()
    print("Solving over the multi-tenant TCP gateway:")
    gateway = SolveGateway(
        AsyncSolveEngine(
            members=("trivial", "packing:8", "sap"), seed=2024, workers=2
        ),
        port=0,  # ephemeral; .port holds the bound value once serving
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(gateway.run()), daemon=True
    )
    thread.start()
    while gateway.port == 0:
        time.sleep(0.01)
    address = ("127.0.0.1", gateway.port)

    for event in gateway_client.submit(
        address,
        [("figure_1b", figure_1b()), ("equation_2", equation_2())],
        tenant="quickstart",
        timeout=60,
    ):
        if event["event"] == "done":
            print(
                f"  [done] {event['case_id']}: "
                f"depth {event['depth']} "
                f"(winner {event['provenance']['winner']})"
            )

    metrics = gateway_client.fetch_metrics(address, timeout=10)
    usage = metrics["tenants"]["quickstart"]
    print(
        f"  tenant 'quickstart': {usage['cases_completed']} cases, "
        f"{usage['quota']['lifetime_seconds']:.3f}s compute; "
        f"win rates {metrics['solvers']['win_rates']}"
    )
    gateway_client.request_once(address, {"op": "shutdown"}, timeout=10)
    thread.join(timeout=10)


if __name__ == "__main__":
    main()
