"""Traffic-policy layer: quotas, tenant identity, admission control.

Everything here runs against fake clocks and in-memory state — no
sockets, no engine.  The gateway round trips that exercise the same
policy over a real connection live in ``test_gateway.py``.
"""

import asyncio

import pytest

from repro.core.exceptions import SolverError
from repro.server.tenancy import (
    DEFAULT_TENANT,
    REJECT_DENIED,
    REJECT_QUOTA,
    REJECT_SATURATED,
    REJECT_TENANT_SATURATED,
    REJECT_UNKNOWN_TENANT,
    AdmissionController,
    DegradedModeController,
    RequestRejected,
    ServerMetrics,
    TenantConfig,
    TenantRegistry,
    TenantState,
)
from repro.service.budget import QuotaWindow


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# QuotaWindow (the rolling ledger tenancy is built on)
# ----------------------------------------------------------------------
class TestQuotaWindow:
    def test_unlimited_quota_never_exhausts(self):
        clock = FakeClock()
        window = QuotaWindow(None, clock=clock)
        window.charge(1e6)
        assert window.remaining() is None
        assert not window.exhausted()

    def test_spend_accumulates_within_window(self):
        clock = FakeClock()
        window = QuotaWindow(10.0, window_seconds=60.0, clock=clock)
        window.charge(3.0)
        window.charge(4.0)
        assert window.spent() == pytest.approx(7.0)
        assert window.remaining() == pytest.approx(3.0)
        assert not window.exhausted()
        window.charge(5.0)
        assert window.exhausted()

    def test_window_roll_refills_quota(self):
        clock = FakeClock()
        window = QuotaWindow(5.0, window_seconds=60.0, clock=clock)
        window.charge(5.0)
        assert window.exhausted()
        clock.advance(59.9)
        assert window.exhausted()
        clock.advance(0.2)
        assert not window.exhausted()
        assert window.spent() == 0.0

    def test_lifetime_totals_survive_rolls(self):
        clock = FakeClock()
        window = QuotaWindow(5.0, window_seconds=10.0, clock=clock)
        window.charge(2.0)
        clock.advance(11.0)
        window.charge(3.0)
        assert window.spent() == pytest.approx(3.0)
        assert window.lifetime_seconds == pytest.approx(5.0)
        assert window.lifetime_charges == 2

    def test_retry_after_counts_down_to_the_roll(self):
        clock = FakeClock()
        window = QuotaWindow(1.0, window_seconds=30.0, clock=clock)
        clock.advance(10.0)
        assert window.retry_after() == pytest.approx(20.0)
        clock.advance(25.0)  # rolls; fresh window just began
        assert window.retry_after() == pytest.approx(30.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SolverError):
            QuotaWindow(-1.0)
        with pytest.raises(SolverError):
            QuotaWindow(1.0, window_seconds=0.0)

    def test_as_dict_shape(self):
        window = QuotaWindow(2.0, clock=FakeClock())
        window.charge(0.5)
        payload = window.as_dict()
        assert payload["quota_seconds"] == 2.0
        assert payload["window_spent"] == pytest.approx(0.5)
        assert payload["window_remaining"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Tenant configuration and registry
# ----------------------------------------------------------------------
class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            TenantConfig("")
        with pytest.raises(SolverError):
            TenantConfig("t", quota_window_seconds=0)
        with pytest.raises(SolverError):
            TenantConfig("t", quota_seconds=-1)
        with pytest.raises(SolverError):
            TenantConfig("t", max_in_flight=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SolverError, match="unknown keys"):
            TenantConfig.from_dict("t", {"priotity": 1})

    def test_from_dict_builds_config(self):
        config = TenantConfig.from_dict(
            "acme", {"priority": 1, "quota_seconds": 30, "key": "s3cret"}
        )
        assert config.priority == 1
        assert config.quota_seconds == 30
        assert config.key == "s3cret"


class TestTenantRegistry:
    def test_anonymous_default(self):
        registry = TenantRegistry()
        state = registry.resolve(None)
        assert state.config.name == DEFAULT_TENANT
        # Same identity resolves to the same live state.
        assert registry.resolve(None) is state

    def test_unknown_tenants_materialize_under_default_policy(self):
        registry = TenantRegistry(
            default=TenantConfig(DEFAULT_TENANT, priority=20)
        )
        state = registry.resolve("walk-in")
        assert state.config.name == "walk-in"
        assert state.config.priority == 20

    def test_closed_registry_rejects_unknown(self):
        registry = TenantRegistry(
            [TenantConfig("acme")], allow_unknown=False
        )
        assert registry.resolve("acme").config.name == "acme"
        with pytest.raises(RequestRejected) as excinfo:
            registry.resolve("stranger")
        assert excinfo.value.code == REJECT_UNKNOWN_TENANT

    def test_key_must_match(self):
        registry = TenantRegistry([TenantConfig("acme", key="s3cret")])
        assert registry.resolve("acme", "s3cret").config.name == "acme"
        for bad in (None, "wrong"):
            with pytest.raises(RequestRejected) as excinfo:
                registry.resolve("acme", bad)
            assert excinfo.value.code == REJECT_DENIED

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(SolverError, match="duplicate"):
            TenantRegistry([TenantConfig("a"), TenantConfig("a")])

    def test_from_mapping_round_trip(self):
        registry = TenantRegistry.from_mapping(
            {
                "allow_unknown": False,
                "default": {"priority": 15},
                "tenants": {
                    "acme": {"priority": 1, "quota_seconds": 30},
                    "guest": {"max_in_flight": 1},
                },
            }
        )
        assert registry.resolve("acme").config.priority == 1
        assert registry.resolve("guest").config.max_in_flight == 1
        with pytest.raises(RequestRejected):
            registry.resolve("nobody")

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"tenants": {"acme": {"priority": 2}}}')
        registry = TenantRegistry.from_file(path)
        assert registry.resolve("acme").config.priority == 2

    def test_from_file_errors_are_clear(self, tmp_path):
        with pytest.raises(SolverError, match="cannot read"):
            TenantRegistry.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SolverError, match="bad JSON"):
            TenantRegistry.from_file(bad)

    def test_usage_reports_every_tenant(self):
        registry = TenantRegistry([TenantConfig("a"), TenantConfig("b")])
        usage = registry.usage()
        assert sorted(usage) == ["a", "b"]
        assert usage["a"]["requests"] == 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def _tenant(name: str = "t", **kwargs) -> TenantState:
    return TenantState(TenantConfig(name, **kwargs))


class TestAdmissionController:
    async def test_admits_up_to_the_window(self):
        admission = AdmissionController(max_in_flight=2, max_waiting=0)
        tenant = _tenant()
        await admission.admit(tenant, 10)
        await admission.admit(tenant, 10)
        assert admission.snapshot()["active"] == 2
        with pytest.raises(RequestRejected) as excinfo:
            await admission.admit(tenant, 10)
        assert excinfo.value.code == REJECT_SATURATED
        assert excinfo.value.retry_after > 0

    async def test_released_slot_goes_to_best_priority_waiter(self):
        admission = AdmissionController(max_in_flight=1, max_waiting=4)
        tenant = _tenant()
        await admission.admit(tenant, 10)

        order = []

        async def waiter(label: str, priority: int) -> None:
            await admission.admit(tenant, priority)
            order.append(label)

        # Submission order low-pri first; wake order must be by class.
        tasks = [
            asyncio.create_task(waiter("low", 20)),
            asyncio.create_task(waiter("high", 1)),
            asyncio.create_task(waiter("mid", 10)),
        ]
        await asyncio.sleep(0)  # park all three in the heap
        assert admission.snapshot()["waiting"] == 3

        for expected in ("high", "mid", "low"):
            admission.release(tenant, 0.01)
            await asyncio.sleep(0)
            assert order[-1] == expected
        for task in tasks:
            await task

    async def test_arrival_order_breaks_priority_ties(self):
        admission = AdmissionController(max_in_flight=1, max_waiting=4)
        tenant = _tenant()
        await admission.admit(tenant, 10)
        order = []

        async def waiter(label: str) -> None:
            await admission.admit(tenant, 5)
            order.append(label)

        tasks = [
            asyncio.create_task(waiter("first")),
            asyncio.create_task(waiter("second")),
        ]
        await asyncio.sleep(0)
        admission.release(tenant, 0.01)
        admission.release(tenant, 0.01)
        await asyncio.sleep(0)
        assert order == ["first", "second"]
        for task in tasks:
            await task

    async def test_tenant_in_flight_cap(self):
        admission = AdmissionController(max_in_flight=8, max_waiting=8)
        greedy = _tenant("greedy", max_in_flight=1)
        await admission.admit(greedy, 10)
        with pytest.raises(RequestRejected) as excinfo:
            await admission.admit(greedy, 10)
        assert excinfo.value.code == REJECT_TENANT_SATURATED
        assert greedy.rejected == 1
        # Other tenants are unaffected by one tenant's cap.
        await admission.admit(_tenant("other"), 10)

    async def test_quota_exhaustion_rejects_with_refill_hint(self):
        admission = AdmissionController()
        tenant = _tenant("metered", quota_seconds=1.0)
        tenant.charge(2.0)
        with pytest.raises(RequestRejected) as excinfo:
            await admission.admit(tenant, 10)
        assert excinfo.value.code == REJECT_QUOTA
        assert 0 <= excinfo.value.retry_after <= 60.0

    async def test_release_updates_service_ewma(self):
        admission = AdmissionController(max_in_flight=1)
        tenant = _tenant()
        await admission.admit(tenant, 10)
        admission.release(tenant, 2.0)
        assert admission.snapshot()["service_seconds_ewma"] == 2.0
        await admission.admit(tenant, 10)
        admission.release(tenant, 4.0)
        # EWMA with alpha 0.2: 2.0 + 0.2 * (4.0 - 2.0)
        assert admission.snapshot()["service_seconds_ewma"] == pytest.approx(
            2.4
        )

    async def test_cancelled_waiter_does_not_eat_the_slot(self):
        admission = AdmissionController(max_in_flight=1, max_waiting=2)
        tenant = _tenant()
        await admission.admit(tenant, 10)

        async def waiter() -> None:
            await admission.admit(tenant, 10)

        task = asyncio.create_task(waiter())
        await asyncio.sleep(0)
        task.cancel()
        await asyncio.sleep(0)
        # The freed slot must skip the dead waiter and return to the pool.
        admission.release(tenant, 0.01)
        assert admission.snapshot()["active"] == 0
        await admission.admit(tenant, 10)

    async def test_waiter_cancelled_after_hand_off_passes_the_slot_on(self):
        admission = AdmissionController(max_in_flight=1, max_waiting=2)
        tenant = _tenant()
        await admission.admit(tenant, 10)
        waiter = asyncio.create_task(admission.admit(tenant, 10))
        await asyncio.sleep(0)
        # release() hands the slot to the parked waiter; the waiter is
        # cancelled before it resumes, so it never takes the slot.
        admission.release(tenant, 0.01)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        assert admission.snapshot()["active"] == 0
        assert tenant.in_flight == 0
        await asyncio.wait_for(admission.admit(tenant, 10), timeout=0.5)

    async def test_cancelled_hand_off_goes_to_the_next_waiter(self):
        admission = AdmissionController(max_in_flight=1, max_waiting=2)
        tenant = _tenant()
        await admission.admit(tenant, 10)
        first = asyncio.create_task(admission.admit(tenant, 1))
        second = asyncio.create_task(admission.admit(tenant, 2))
        await asyncio.sleep(0)
        admission.release(tenant, 0.01)
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        await asyncio.wait_for(second, timeout=0.5)
        assert admission.snapshot()["active"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(SolverError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(SolverError):
            AdmissionController(max_waiting=-1)

    def test_rejection_event_wire_shape(self):
        exc = RequestRejected(
            "busy", code=REJECT_SATURATED, retry_after=1.23456
        )
        assert exc.as_event() == {
            "event": "error",
            "error": "busy",
            "code": REJECT_SATURATED,
            "retry_after": 1.235,
        }


# ----------------------------------------------------------------------
# Degraded mode
# ----------------------------------------------------------------------
class TestDegradedModeController:
    @staticmethod
    def _timeouts_at(clock, controller, *times):
        for at in times:
            clock.now = at
            controller.note_exact_timeout()

    def test_three_exact_timeouts_within_the_window_enter_the_mode(self):
        clock = FakeClock()
        controller = DegradedModeController(clock=clock)
        self._timeouts_at(clock, controller, 0.0, 14.0)
        assert not controller.degraded()
        self._timeouts_at(clock, controller, 28.0)
        assert controller.degraded()
        snapshot = controller.snapshot()
        assert snapshot["degraded"] is True
        assert snapshot["recent_exact_timeouts"] == 3
        assert snapshot["entered_total"] == 1

    def test_signals_older_than_the_window_are_pruned(self):
        clock = FakeClock()
        controller = DegradedModeController(clock=clock)
        # The first signal is 32 s old when the third arrives.
        self._timeouts_at(clock, controller, 0.0, 16.0, 32.0)
        assert not controller.degraded()
        assert controller.snapshot()["recent_exact_timeouts"] == 2
        clock.now = 62.5
        assert controller.snapshot()["recent_exact_timeouts"] == 0
        assert controller.entered_total == 0

    def test_mode_lasts_the_cooldown_after_the_last_signal(self):
        clock = FakeClock()
        controller = DegradedModeController(clock=clock)
        self._timeouts_at(clock, controller, 0.0, 25.0, 28.0)
        clock.now = 30.5  # the first signal is pruned: below threshold
        assert controller.snapshot()["recent_exact_timeouts"] == 2
        assert controller.degraded()
        clock.now = 38.0  # 10 s after the last signal
        assert controller.degraded()
        clock.now = 38.5
        assert not controller.degraded()
        snapshot = controller.snapshot()
        assert snapshot["degraded"] is False
        assert snapshot["degraded_for_seconds"] is None

    def test_snapshot_reports_the_thresholds(self):
        snapshot = DegradedModeController().snapshot()
        assert snapshot["saturation_threshold"] == 5
        assert snapshot["exact_timeout_threshold"] == 3
        assert snapshot["window_seconds"] == 30.0
        assert snapshot["cooldown_seconds"] == 10.0


# ----------------------------------------------------------------------
# Shared metrics
# ----------------------------------------------------------------------
class TestServerMetrics:
    def test_gauge_and_lifetime_counter_are_separate(self):
        metrics = ServerMetrics()
        metrics.connection_opened()
        metrics.connection_opened()
        metrics.connection_closed()
        assert metrics.connections_active == 1
        assert metrics.connections_total == 2
        payload = metrics.as_dict()
        assert payload["connections"]["active"] == 1
        assert payload["connections"]["total"] == 2

    def test_terminal_counters(self):
        metrics = ServerMetrics()
        metrics.record_terminal("done", from_cache=False)
        metrics.record_terminal("done", from_cache=True)
        metrics.record_terminal("failed", from_cache=False)
        metrics.record_terminal("cancelled", from_cache=False)
        cases = metrics.as_dict()["cases"]
        assert cases["completed"] == 2
        assert cases["from_cache"] == 1
        assert cases["failed"] == 1
        assert cases["cancelled"] == 1
