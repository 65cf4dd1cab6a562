"""Chaos-suite plumbing: marker, hard per-test timeout, fault hygiene.

Every test here injects faults through :mod:`repro.service.faults` and
asserts the serving stack *recovers* — so a regression tends to look
like a hang (a batch waiting on a dead worker, a client retrying
forever), not a failure.  The SIGALRM fixture converts those hangs into
loud timeouts, and the hygiene fixture guarantees no fault plan leaks
into later tests.
"""

import signal

import pytest

from repro.service import faults

CHAOS_TEST_TIMEOUT = 120
"""Hard per-test ceiling (seconds) — generous, because the suite spawns
process pools on a possibly loaded CI box; a healthy test finishes in a
small fraction of this."""


def pytest_collection_modifyitems(items):
    for item in items:
        if "tests/chaos/" in str(item.fspath).replace("\\", "/"):
            item.add_marker(pytest.mark.chaos)


@pytest.fixture(autouse=True)
def _hard_timeout():
    def _expired(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded {CHAOS_TEST_TIMEOUT}s — a recovery "
            f"path is probably hanging instead of failing"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(CHAOS_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fault_hygiene():
    faults.clear()
    try:
        yield
    finally:
        faults.clear()
