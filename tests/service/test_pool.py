"""The worker pool on its own: results, member events, errors, threads."""

import multiprocessing
import sys
import threading

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.exceptions import SolverError
from repro.service.pool import WorkerPool, solve_payload
from repro.service.portfolio import result_from_dict

MEMBERS = ("trivial", "packing:2")


def _payload(case_id, seed, members=MEMBERS):
    matrix = random_matrix(5, 6, 0.4, seed=seed)
    return (
        case_id,
        matrix.row_masks,
        matrix.num_cols,
        members,
        seed,
        None,
        None,
        True,
    )


def _content(result_dict):
    """Provenance minus wall time: equal for equal solves."""
    return result_from_dict(result_dict).provenance(include_timing=False)


def test_worker_error_reaches_the_caller_and_the_slot_survives():
    good = _payload("good", 1)
    with WorkerPool(1) as pool:
        with pytest.raises(SolverError, match="magic"):
            pool.solve(_payload("bad", 2, members=("magic:3",)))
        result, retried = pool.solve(good)
    assert not retried
    assert _content(result) == _content(solve_payload(good))
    assert multiprocessing.active_children() == []


def test_more_threads_than_slots_each_get_their_own_case():
    """Six threads share two slots: every caller gets its own result and
    exactly its own member events, in order."""
    payloads = [_payload(f"c{i:02d}", 100 + i) for i in range(18)]
    events = {payload[0]: [] for payload in payloads}
    solved = {}

    def solve_share(pool, share):
        for payload in share:
            solved[payload[0]] = pool.solve(
                payload, on_member=lambda o: events[payload[0]].append(o.name)
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(2) as pool:
            threads = [
                threading.Thread(
                    target=solve_share,
                    args=(pool, payloads[i::6]),
                    daemon=True,
                )
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    for payload in payloads:
        result, retried = solved[payload[0]]
        assert not retried
        assert _content(result) == _content(solve_payload(payload))
        assert events[payload[0]] == list(MEMBERS)
    assert multiprocessing.active_children() == []
