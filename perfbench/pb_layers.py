"""Which program functions the traced pass wraps, and the per-layer
metrics computed from the spans and counters they record.

Every boundary is a public entry point of its layer, except on the
serving side, whose public surface is the wire protocol: there the
request dispatcher (``StreamFront._dispatch``) and the engine's
executor hand-off (``AsyncSolveEngine._solve_in_executor``) are the
layer boundaries.
"""

from __future__ import annotations

from importlib import import_module
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from pb_trace import Span, Tracer, layer_times, unattributed_frac

HARNESS_SPANS = frozenset({"scoreboard", "client"})
"""Spans the harness opens around each whole request (an in-process
``run_scoreboard`` call, a gateway client's request) to give it a
request id.  They are no layer, so they count as no coverage in
``trace.unattributed_frac``."""

_CDCL_FIELDS = ("conflicts", "propagations", "decisions", "learned_clauses")


def _cdcl_before(args: tuple, kwargs: dict) -> Tuple[int, ...]:
    stats = args[0].stats
    return tuple(getattr(stats, name) for name in _CDCL_FIELDS)


def _cdcl_after(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                result: Any) -> None:
    stats = args[0].stats
    for name, before in zip(_CDCL_FIELDS, state):
        tracer.count(f"cdcl.{name}", getattr(stats, name) - before)


def _encode_after(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                  encoder: Any) -> None:
    tracer.count("encode.vars", encoder.solver.num_vars)
    tracer.count("encode.clauses", encoder.solver.num_clauses)


def _oracle_after(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                  result: Any) -> None:
    tracer.count("oracle.queries")
    tracer.count(f"oracle.{result[0].value}")


def _packing_pass(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                  result: Any) -> None:
    tracer.count("packing.passes")


def _portfolio_after(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                     result: Any) -> None:
    from repro.service.portfolio import CERTIFIED_BY_RANK

    skipped = sum(1 for outcome in result.outcomes if outcome.skipped)
    tracer.count("portfolio.members_skipped", skipped)
    tracer.count("portfolio.members_run", len(result.outcomes) - skipped)
    if result.certifier == CERTIFIED_BY_RANK:
        tracer.count("portfolio.rank_certified")


def _cache_get_after(tracer: Tracer, state: Any, args: tuple, kwargs: dict,
                     result: Any) -> None:
    tracer.count("cache.misses" if result is None else "cache.hits")


def _request_id(args: tuple, kwargs: dict) -> Optional[str]:
    request = args[1]
    cases = request.get("cases") or [{}]
    return str(cases[0].get("case_id", request.get("op", "")))


def install_solver_layers(tracer: Tracer) -> None:
    """Wrap the solver stack: portfolio, SAP, packing, bounds, oracle,
    encoder, CDCL and partition validation."""
    # import_module, not "import a.b as b": a package may re-export a
    # function under its submodule's name (repro.solvers.row_packing).
    bounds = import_module("repro.core.bounds")
    portfolio = import_module("repro.service.portfolio")
    encoder = import_module("repro.smt.encoder")
    row_packing = import_module("repro.solvers.row_packing")
    sap = import_module("repro.solvers.sap")
    from repro.core.partition import Partition
    from repro.sat.solver import CdclSolver
    from repro.smt.oracle import RankDecisionOracle

    tracer.patch(portfolio, "solve_portfolio", "portfolio",
                 after=_portfolio_after)
    tracer.patch(sap, "sap_solve", "sap")
    tracer.patch(row_packing, "row_packing", "packing")
    tracer.patch(row_packing, "pack_rows_once", "packing.pass", span=False,
                 after=_packing_pass)
    tracer.patch(bounds, "rank_lower_bound", "bounds")
    tracer.patch(RankDecisionOracle, "check_at_most", "oracle",
                 after=_oracle_after)
    tracer.patch(encoder, "make_encoder", "encode", after=_encode_after)
    tracer.patch(encoder.DirectEncoder, "narrow_to", "encode")
    tracer.patch(CdclSolver, "solve", "cdcl", before=_cdcl_before,
                 after=_cdcl_after)
    tracer.patch(Partition, "validate", "validate")


def install_serving_layers(tracer: Tracer) -> None:
    """Wrap the parts of the serving stack that run in the gateway
    process: request dispatch, admission, engine hand-off, the result
    cache and its sharded store."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.server.engine import AsyncSolveEngine
    from repro.server.gateway import StreamFront
    from repro.server.shards import ShardedDiskTier
    from repro.server.tenancy import AdmissionController
    from repro.service.cache import ResultCache

    # The engine solves on pool threads, which start with an empty
    # context: hand the request's over, so solver spans nest under the
    # engine's hand-off and carry the request id.
    tracer.carry_context(ThreadPoolExecutor, "submit")
    tracer.patch(StreamFront, "_dispatch", "gateway", rid_of=_request_id)
    tracer.patch(AdmissionController, "admit", "serve.admit")
    tracer.patch(AsyncSolveEngine, "_solve_in_executor", "engine.dispatch")
    tracer.patch(ResultCache, "get_by_key", "cache.get",
                 after=_cache_get_after)
    tracer.patch(ResultCache, "put", "cache.put")
    tracer.patch(ResultCache, "flush", "cache.flush")
    tracer.patch(ShardedDiskTier, "get", "store.get")
    tracer.patch(ShardedDiskTier, "store", "store.write")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
PER_LAYER_UNITS: Dict[str, str] = {
    "cdcl.busy_s": "s",
    "cdcl.conflicts": "count",
    "cdcl.propagations": "count",
    "cdcl.decisions": "count",
    "cdcl.learned_clauses": "count",
    "cdcl.conflicts_per_s": "1/s",
    "cdcl.propagations_per_s": "1/s",
    "encode.busy_s": "s",
    "encode.vars": "count",
    "encode.clauses": "count",
    "oracle.queries": "count",
    "oracle.sat": "count",
    "oracle.unsat": "count",
    "oracle.unknown": "count",
    "oracle.unknown_frac": "ratio",
    "sap.calls": "count",
    "sap.busy_s": "s",
    "sap.self_s": "s",
    "packing.calls": "count",
    "packing.passes": "count",
    "packing.busy_s": "s",
    "bounds.calls": "count",
    "bounds.busy_s": "s",
    "validate.busy_s": "s",
    "portfolio.busy_s": "s",
    "portfolio.self_s": "s",
    "portfolio.members_run": "count",
    "portfolio.members_skipped": "count",
    "portfolio.rank_certified": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.flush_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "store.get_s": "s",
    "store.write_s": "s",
    "serve.admit_s": "s",
    "serve.hit_ms_p50": "ms",
    "serve.miss_overhead_ms_p50": "ms",
    "serve.ping_ms_p50": "ms",
    "serve.rejected": "count",
    "serve.worker_crashes": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
"""Every per-layer metric the traced pass reports, with its unit.
Counts and times are per pass over the workload's instance set (per
round of requests on the gateway), so runs of different length compare."""


def per_layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
    *,
    passes: int,
    windows: Sequence[Tuple[float, float]],
    main_pid: int,
    traced_pass_s: float,
    untraced_pass_s: float,
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The :data:`PER_LAYER_UNITS` values for the traced passes.

    ``windows`` are the traced passes (the share of them no layer span
    covers is ``trace.unattributed_frac``); the overhead compares the median
    traced and untraced pass.  ``serve`` carries what only the client
    side can see: the median cache-hit and ping latencies, the miss
    overhead, and the gateway's own ``metrics``-op counters.
    """
    times = layer_times(spans)

    def busy(name: str) -> float:
        return times.get(name, {}).get("busy_s", 0.0) / passes

    def self_time(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0) / passes

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0) / passes

    def count(name: str) -> float:
        return counters.get(name, 0) / passes

    cdcl_busy = busy("cdcl")
    hits, misses = count("cache.hits"), count("cache.misses")
    queries = count("oracle.queries")
    serve = serve or {}
    metrics = {
        "cdcl.busy_s": cdcl_busy,
        "cdcl.conflicts": count("cdcl.conflicts"),
        "cdcl.propagations": count("cdcl.propagations"),
        "cdcl.decisions": count("cdcl.decisions"),
        "cdcl.learned_clauses": count("cdcl.learned_clauses"),
        "cdcl.conflicts_per_s": (
            count("cdcl.conflicts") / cdcl_busy if cdcl_busy else 0.0
        ),
        "cdcl.propagations_per_s": (
            count("cdcl.propagations") / cdcl_busy if cdcl_busy else 0.0
        ),
        "encode.busy_s": busy("encode"),
        "encode.vars": count("encode.vars"),
        "encode.clauses": count("encode.clauses"),
        "oracle.queries": queries,
        "oracle.sat": count("oracle.sat"),
        "oracle.unsat": count("oracle.unsat"),
        "oracle.unknown": count("oracle.unknown"),
        "oracle.unknown_frac": (
            count("oracle.unknown") / queries if queries else 0.0
        ),
        "sap.calls": calls("sap"),
        "sap.busy_s": busy("sap"),
        "sap.self_s": self_time("sap"),
        "packing.calls": calls("packing"),
        "packing.passes": count("packing.passes"),
        "packing.busy_s": busy("packing"),
        "bounds.calls": calls("bounds"),
        "bounds.busy_s": busy("bounds"),
        "validate.busy_s": busy("validate"),
        "portfolio.busy_s": busy("portfolio"),
        "portfolio.self_s": self_time("portfolio"),
        "portfolio.members_run": count("portfolio.members_run"),
        "portfolio.members_skipped": count("portfolio.members_skipped"),
        "portfolio.rank_certified": count("portfolio.rank_certified"),
        "cache.get_s": busy("cache.get"),
        "cache.put_s": busy("cache.put"),
        "cache.flush_s": busy("cache.flush"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.get_s": busy("store.get"),
        "store.write_s": busy("store.write"),
        "serve.admit_s": busy("serve.admit"),
        "serve.hit_ms_p50": serve.get("hit_ms_p50", 0.0),
        "serve.miss_overhead_ms_p50": serve.get("miss_overhead_ms_p50", 0.0),
        "serve.ping_ms_p50": serve.get("ping_ms_p50", 0.0),
        "serve.rejected": serve.get("rejected", 0.0),
        "serve.worker_crashes": serve.get("worker_crashes", 0.0),
        "trace.overhead_frac": traced_pass_s / untraced_pass_s - 1.0,
        "trace.unattributed_frac": unattributed_frac(
            [
                span for span in spans
                if span[0] == main_pid and span[3] not in HARNESS_SPANS
            ],
            windows,
        ),
    }
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics


def median_ms(values: List[float]) -> float:
    """Median of second-valued samples, in milliseconds (0 when empty)."""
    return median(values) * 1000.0 if values else 0.0
