"""The three workloads: instance pools, request order, and the runners.

Every workload draws from a fixed instance pool built from the corpus
seed the expected answers were recorded at (:data:`POOL_SEED`), so
every answer, whatever ``--seed`` is, has an expected value to be
checked against.  ``--seed`` generates what the program is asked and
when: the order of the instances in each pass, and on the gateway the
interleaving of repeat and fresh requests.

* ``scoreboard-quick`` — the quick corpus through ``run_scoreboard``
  with the default portfolio, cold, in-process (CDCL-bound).
* ``heuristic-large`` — the paper-scale 100x100 ``table1-rand``
  matrices plus the full ``scale-sweep`` family with the heuristic-only
  members (rank bound and row packing; no CDCL).
* ``gateway-mixed`` — two closed-loop clients sending one-case solve
  requests over TCP to an in-process ``SolveGateway`` that solves on
  two threads: repeats of the smoke corpus (cache hits) and fresh
  10x10 matrices (misses).

The in-process workloads measure whole passes over the pool and the
gateway whole rounds of requests, each round against a gateway started
for it with an empty cache.  So every pass does the same work and only
the number of passes varies with ``--seconds``.  Rates are taken
from the median pass: a shared host's CPU speed drifts by tens of
percent for seconds at a time, and a median over passes is less moved
by such stretches than a total over the run.  Slower drift, over
minutes, is taken out by the host-speed scale of each pass
(``pb_host``).
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import pb_host
import pb_layers

POOL_SEED = 2024
"""Corpus seed of every instance pool (the corpus's default seed)."""

# Spelled out rather than imported, so that a change of the program's
# default portfolio shows as a change, not as a different workload.
DEFAULT_MEMBERS = ("trivial", "packing:32", "sap")
HEURISTIC_MEMBERS = ("trivial", "packing:32")
FRESH_COUNT = 104
"""Fresh 10x10 matrices per gateway round."""
SMOKE_REPEATS = 4
"""Times each smoke instance is requested per gateway round; with 26
smoke instances this makes half of each round repeats."""
GATEWAY_CLIENTS = 2
GATEWAY_WORKERS = 2
PING_EVERY = 10
"""In the traced gateway pass each client also pings once per this
many requests."""
REQUEST_TIMEOUT_S = 120.0

WORKLOADS = ("scoreboard-quick", "heuristic-large", "gateway-mixed")


def members(workload: str) -> Tuple[str, ...]:
    """The portfolio members ``workload`` solves with."""
    if workload == "heuristic-large":
        return HEURISTIC_MEMBERS
    return DEFAULT_MEMBERS


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------
def build_pool(workload: str) -> List[Any]:
    """The fixed instance pool of ``workload`` (corpus instances)."""
    from repro.corpus.registry import (
        CorpusInstance,
        build_corpus,
        get_family,
        instance_from_case,
    )

    if workload == "scoreboard-quick":
        return build_corpus(profile="quick", seed=POOL_SEED)
    if workload == "heuristic-large":
        from repro.benchgen.suite import LARGE_OCCUPANCIES, random_suite

        large = random_suite((100, 100), LARGE_OCCUPANCIES, 10, seed=POOL_SEED)
        return [
            instance_from_case(case, family="table1-rand", seed=POOL_SEED)
            for case in large
        ] + get_family("scale-sweep").build("full", POOL_SEED)
    if workload == "gateway-mixed":
        from repro.benchgen.random_matrices import random_matrix
        from repro.utils.rng import spawn_seeds

        fresh = [
            CorpusInstance(
                case_id=f"fresh-{index:04d}",
                family="fresh",
                matrix=random_matrix(10, 10, 0.3, seed=seed),
                seed=seed,
            )
            for index, seed in enumerate(
                spawn_seeds(POOL_SEED, FRESH_COUNT, salt="perfbench/fresh")
            )
        ]
        return build_corpus(profile="smoke", seed=POOL_SEED) + fresh
    raise ValueError(f"unknown workload {workload!r}")


def gateway_round(pool: Sequence[Any], rng: Any) -> List[Tuple[str, Any]]:
    """One round of ``(request case id, instance)`` in seeded order.

    Each round runs against a gateway with an empty cache: fresh
    instances, asked once, miss; smoke instances, asked
    :data:`SMOKE_REPEATS` times, hit after their first request.
    """
    requests = []
    for instance in pool:
        copies = 1 if instance.family == "fresh" else SMOKE_REPEATS
        requests.extend([(instance.case_id, instance)] * copies)
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One answered (or failed) instance or request."""

    instance: Any
    latency: float
    depth: int = 0
    optimal: bool = False
    ratio: float = 0.0
    from_cache: bool = False
    server_wall: float = 0.0
    partition: Any = None
    key: str = ""
    error: Optional[str] = None


@dataclass
class Segment:
    """What one measured stretch of whole passes (or rounds) produced."""

    outcomes: List[Outcome]
    pass_windows: List[Tuple[float, float]]
    """``(start, end)`` of each pass, set-up excluded."""
    pings: List[float] = field(default_factory=list)
    rejected: int = 0
    worker_crashes: int = 0
    """Summed over the rounds' gateways, from their ``metrics`` op."""
    setup_times: List[float] = field(default_factory=list)
    pass_scales: List[float] = field(default_factory=list)
    """Host-speed scale of each pass (see ``pb_host``)."""
    setup_scales: List[float] = field(default_factory=list)
    """Host-speed scale of each set-up, from the reference time taken
    just before it."""

    @property
    def pass_times(self) -> List[float]:
        return [end - start for start, end in self.pass_windows]

    @property
    def passes(self) -> int:
        return len(self.pass_windows)


def merge(segments: Sequence[Segment]) -> Segment:
    """One segment holding the passes of ``segments`` in order."""
    return Segment(
        outcomes=[o for segment in segments for o in segment.outcomes],
        pass_windows=[w for segment in segments for w in segment.pass_windows],
        pings=[t for segment in segments for t in segment.pings],
        rejected=sum(segment.rejected for segment in segments),
        worker_crashes=sum(segment.worker_crashes for segment in segments),
        setup_times=[t for segment in segments for t in segment.setup_times],
        pass_scales=[s for segment in segments for s in segment.pass_scales],
        setup_scales=[s for segment in segments for s in segment.setup_scales],
    )


def _more(
    deadline: Optional[float],
    passes: Optional[int],
    done: Sequence[Tuple[float, float]],
) -> bool:
    """Whether to start another pass: until ``passes`` passes are done,
    or while a pass as long as the last one would end mostly before
    ``deadline``; always at least one."""
    if not done:
        return True
    if passes is not None:
        return len(done) < passes
    start, end = done[-1]
    return time.perf_counter() + (end - start) / 2 < deadline


def best_known_ratio(instance: Any, depth: int, optimal: bool,
                     lower_bound: int) -> float:
    """Depth over best-known depth, by the scoreboard's ``ScoreRow``
    rule; used where only the wire answer is available."""
    known = instance.known_rank
    if known is None and optimal:
        known = depth
    if known is None:
        known = max(lower_bound, instance.known_lower_bound or 0)
    return depth / max(1, known)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def run_scoreboard_passes(
    workload: str,
    members: Sequence[str],
    rng: Any,
    check: Callable[[Outcome], Optional[str]],
    *,
    deadline: Optional[float] = None,
    passes: Optional[int] = None,
) -> Segment:
    """Run whole passes over the pool of ``workload``, one
    ``run_scoreboard`` call per instance, until ``deadline`` or for
    ``passes`` passes.

    Every pass generates its instances afresh, and that set-up is timed
    on its own, after a full garbage collection: set-up samples spread
    over the run like the passes do.  The host's reference time is
    taken before every set-up and after the last pass, for the scales.

    Each call gets a fresh in-memory ``ResultCache``: it never hits, and
    it is how the solved partition is handed back (the scoreboard's rows
    carry only the depth).  ``check`` judges each answer right after its
    call, outside the call's latency; its verdict lands in the outcome's
    ``error`` and the partition is dropped, so the benchmark's memory
    does not grow with the number of passes.
    """
    from importlib import import_module

    from repro.service.cache import ResultCache

    # Looked up at call time, so the traced pass sees its wrapper.
    scoreboard = import_module("repro.corpus.scoreboard")

    outcomes: List[Outcome] = []
    pass_windows: List[Tuple[float, float]] = []
    setup_times: List[float] = []
    references: List[float] = []
    while _more(deadline, passes, pass_windows):
        # A collection left over from the last pass would otherwise land
        # in some set-ups and not others.
        gc.collect()
        references.append(pb_host.reference_time())
        began = time.perf_counter()
        order = build_pool(workload)
        setup_times.append(time.perf_counter() - began)
        rng.shuffle(order)
        began_pass = time.perf_counter()
        for instance in order:
            capture = ResultCache()
            began = time.perf_counter()
            try:
                report = scoreboard.run_scoreboard(
                    instances=[instance], members=members, cache=capture,
                    seed=POOL_SEED,
                )
                row, error = report.rows[0], None
            # The benchmark reports a failing call and keeps measuring.
            except Exception as exc:
                row, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            outcome = _scoreboard_outcome(
                members, instance, row, latency, capture, error
            )
            outcome.error = check(outcome)
            outcome.partition = None
            outcomes.append(outcome)
        pass_windows.append((began_pass, time.perf_counter()))
    references.append(pb_host.reference_time())
    return Segment(
        outcomes=outcomes,
        pass_windows=pass_windows,
        setup_times=setup_times,
        pass_scales=pb_host.pass_scales(references),
        setup_scales=[pb_host.REFERENCE_S / r for r in references[:-1]],
    )


def _scoreboard_outcome(
    members: Sequence[str],
    instance: Any,
    row: Any,
    latency: float,
    capture: Any,
    error: Optional[str],
) -> Outcome:
    from repro.service.batch import instance_seed, solve_context

    if error is not None:
        return Outcome(instance=instance, latency=latency, error=error)
    context = solve_context(
        tuple(members), instance_seed(POOL_SEED, instance.case_id),
        None, None, True,
    )
    result = capture.get(instance.matrix, context)
    return Outcome(
        instance=instance,
        latency=latency,
        depth=row.depth,
        optimal=row.optimal,
        ratio=row.ratio,
        partition=None if result is None else result.partition,
        error=None if result is not None else "no result to check",
    )


# ----------------------------------------------------------------------
# Gateway workload
# ----------------------------------------------------------------------
class Gateway:
    """An in-process ``SolveGateway`` on an ephemeral localhost port,
    served from its own thread and solving on :data:`GATEWAY_WORKERS`
    threads, with a sharded cache in a fresh directory under
    ``scratch``."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.cache: Any = None
        self._cache_dir: Optional[Path] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self) -> None:
        from repro.server.client import request_once
        from repro.server.engine import AsyncSolveEngine
        from repro.server.gateway import SolveGateway
        from repro.server.tenancy import AdmissionController
        from repro.service.cache import ResultCache

        # The store keeps a lock file beside its directory: nest it so
        # that removing one directory removes everything.
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._cache_dir = Path(tempfile.mkdtemp(prefix="gateway-", dir=self.scratch))
        self.cache = ResultCache.sharded(self._cache_dir / "cache")
        # The engine's default thread executor, as ``python -m repro
        # gateway`` starts it.  The process executor puts a spawned
        # worker and a manager process on every miss, and on a 2-vCPU
        # host the scheduler, not the program, then sets how far runs
        # spread.
        gateway = SolveGateway(
            AsyncSolveEngine(workers=GATEWAY_WORKERS, cache=self.cache),
            admission=AdmissionController(),
        )
        self._thread = threading.Thread(
            target=self._serve, args=(gateway,), name="perfbench-gateway"
        )
        self._thread.start()
        try:
            if not self._ready.wait(timeout=120) or self._failure is not None:
                raise RuntimeError(f"gateway did not start: {self._failure!r}")
            self.address = ("127.0.0.1", gateway.port)
            request_once(self.address, {"op": "ping"}, timeout=30)
        except BaseException:
            self.stop()
            raise

    def _serve(self, gateway: Any) -> None:
        try:
            asyncio.run(gateway.run(on_ready=lambda _: self._ready.set()))
        # Reported by start() or stop(); the thread must not die silently.
        except BaseException as exc:
            self._failure = exc
        finally:
            self._ready.set()

    def stop(self) -> None:
        from repro.server.client import request_once

        try:
            if self._thread is not None and self._thread.is_alive():
                request_once(self.address, {"op": "shutdown"}, timeout=30)
                self._thread.join(timeout=120)
                if self._thread.is_alive():
                    raise RuntimeError("gateway thread did not stop")
        finally:
            if self._cache_dir is not None:
                shutil.rmtree(self._cache_dir, ignore_errors=True)


def _client(
    gateway: Gateway,
    requests: Iterator[Tuple[str, Any]],
    lock: threading.Lock,
    outcomes: List[Outcome],
    pings: List[float],
    tracer: Any,
) -> None:
    """One closed-loop client: send the next request once the previous
    one is answered, until the round's requests run out."""
    from repro.server.client import request_once, submit

    sent = 0
    while True:
        with lock:
            item = next(requests, None)
        if item is None:
            return
        case_id, instance = item
        sent += 1
        if tracer is not None and sent % PING_EVERY == 0:
            began = time.perf_counter()
            request_once(gateway.address, {"op": "ping"},
                         timeout=REQUEST_TIMEOUT_S)
            pings.append(time.perf_counter() - began)
        outcome = Outcome(instance=instance, latency=0.0)
        began = time.perf_counter()
        try:
            if tracer is None:
                done = _solve_request(submit, gateway, case_id, instance)
            else:
                with tracer.span("client", rid=case_id):
                    done = _solve_request(submit, gateway, case_id, instance)
        # A refused or broken request is a failure to count, not a crash.
        except Exception as exc:
            done, outcome.error = None, f"{type(exc).__name__}: {exc}"
        outcome.latency = time.perf_counter() - began
        if done is not None:
            provenance = done["provenance"]
            outcome.depth = provenance["depth"]
            outcome.optimal = provenance["optimal"]
            outcome.from_cache = bool(provenance["from_cache"])
            outcome.server_wall = provenance["wall_seconds"]
            outcome.key = provenance["key"]
            outcome.ratio = best_known_ratio(
                instance, outcome.depth, outcome.optimal,
                provenance["lower_bound"],
            )
        elif outcome.error is None:
            outcome.error = "no done event"
        outcomes.append(outcome)


def _solve_request(
    submit: Any, gateway: Gateway, case_id: str, instance: Any
) -> Optional[Dict[str, Any]]:
    done = None
    for event in submit(
        gateway.address, [(case_id, instance.matrix)],
        timeout=REQUEST_TIMEOUT_S,
    ):
        if event.get("event") == "done":
            done = event
        elif event.get("event") in ("failed", "cancelled"):
            raise RuntimeError(f"{event['event']}: {event.get('error')}")
    return done


def run_gateway_rounds(
    rng: Any,
    scratch: Path,
    *,
    deadline: Optional[float] = None,
    rounds: Optional[int] = None,
    tracer: Any = None,
) -> Segment:
    """Run whole rounds, each against a gateway started for it, until
    ``deadline`` or for ``rounds`` rounds.

    A round's set-up generates the pool and starts the gateway, and is
    timed on its own.  Then :data:`GATEWAY_CLIENTS` closed-loop clients
    send the round's requests.  Each answer's partition is then read
    from the gateway's cache, so it can be checked, and the gateway is
    stopped.

    With a ``tracer``, the solver and serving layers are wrapped once
    the gateway is up, and each request gets a ``client`` span; the
    wrappers are removed before the cache is read for the checks, so
    those reads count in no layer.

    The host's reference time is taken before every round's set-up and
    after the last round, for the scales.
    """
    segment = Segment(outcomes=[], pass_windows=[])
    references: List[float] = []
    while _more(deadline, rounds, segment.pass_windows):
        gc.collect()
        references.append(pb_host.reference_time())
        _run_gateway_round(rng, scratch, segment, tracer)
    references.append(pb_host.reference_time())
    segment.pass_scales = pb_host.pass_scales(references)
    segment.setup_scales = [pb_host.REFERENCE_S / r for r in references[:-1]]
    return segment


def _run_gateway_round(
    rng: Any, scratch: Path, segment: Segment, tracer: Any
) -> None:
    from repro.server.client import fetch_metrics

    began = time.perf_counter()
    pool = build_pool("gateway-mixed")
    gateway = Gateway(scratch)
    gateway.start()
    segment.setup_times.append(time.perf_counter() - began)
    try:
        if tracer is not None:
            pb_layers.install_solver_layers(tracer)
            pb_layers.install_serving_layers(tracer)
        try:
            outcomes = _send_round(gateway, pool, rng, segment, tracer)
            server = fetch_metrics(gateway.address, timeout=30)
        finally:
            if tracer is not None:
                tracer.restore()
        segment.rejected += server["requests"]["rejected"]
        segment.worker_crashes += server["engine"]["worker_crashes"]
        _attach_partitions(gateway, outcomes)
        segment.outcomes.extend(outcomes)
    finally:
        gateway.stop()


def _send_round(
    gateway: Gateway, pool: Sequence[Any], rng: Any, segment: Segment,
    tracer: Any,
) -> List[Outcome]:
    requests = iter(gateway_round(pool, rng))
    lock = threading.Lock()
    outcomes: List[Outcome] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(gateway, requests, lock, outcomes, segment.pings, tracer),
            name=f"perfbench-client-{index}",
        )
        for index in range(GATEWAY_CLIENTS)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("a gateway client did not finish")
    segment.pass_windows.append((began, time.perf_counter()))
    return outcomes


def _attach_partitions(gateway: Gateway, outcomes: Sequence[Outcome]) -> None:
    by_key: Dict[str, Any] = {}
    for outcome in outcomes:
        if outcome.error is None:
            if outcome.key not in by_key:
                result = gateway.cache.get_by_key(outcome.key)
                by_key[outcome.key] = None if result is None else result.partition
            outcome.partition = by_key[outcome.key]
            if outcome.partition is None:
                outcome.error = "answer missing from the cache"
