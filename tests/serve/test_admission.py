"""Admission control, load shedding, and the circuit breaker in isolation."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import (
    AdmissionController,
    AdmissionTimeout,
    CircuitBreaker,
    ServiceConfig,
    ShedRequest,
)


def controller(**kw) -> AdmissionController:
    kw.setdefault("registry", MetricsRegistry())
    kw.setdefault("rng", random.Random(7))
    return AdmissionController(
        kw.pop("max_inflight", 2), kw.pop("max_queue", 2), **kw
    )


def test_admits_up_to_max_inflight_without_waiting():
    async def run():
        ctrl = controller(max_inflight=3)
        waits = [await ctrl.admit() for _ in range(3)]
        assert ctrl.inflight == 3
        assert all(w < 0.1 for w in waits)
        for _ in range(3):
            ctrl.exit()
        assert ctrl.inflight == 0
        assert ctrl.admitted == 3

    asyncio.run(run())


def test_sheds_at_queue_watermark_with_retry_hint():
    async def run():
        ctrl = controller(max_inflight=1, max_queue=1,
                          retry_after_s=0.25, retry_jitter_s=0.5)
        await ctrl.admit()  # takes the only slot
        waiter = asyncio.ensure_future(ctrl.admit())  # fills the queue
        await asyncio.sleep(0)
        assert ctrl.queued == 1
        with pytest.raises(ShedRequest) as info:
            await ctrl.admit()
        assert 0.25 <= info.value.retry_after_s < 0.75
        assert ctrl.shed == 1
        ctrl.exit()
        await waiter
        ctrl.exit()

    asyncio.run(run())


def test_queue_wait_times_out_with_admission_timeout():
    async def run():
        ctrl = controller(max_inflight=1)
        await ctrl.admit()
        with pytest.raises(AdmissionTimeout):
            await ctrl.admit(timeout_s=0.02)
        assert ctrl.timed_out == 1
        assert ctrl.queued == 0  # the dead waiter left the queue
        ctrl.exit()
        # The slot freed by exit() is admittable again.
        assert await ctrl.admit(timeout_s=0.5) < 0.1
        ctrl.exit()

    asyncio.run(run())


def test_queued_request_proceeds_when_slot_frees():
    async def run():
        ctrl = controller(max_inflight=1)
        await ctrl.admit()

        async def queued():
            waited = await ctrl.admit(timeout_s=1.0)
            ctrl.exit()
            return waited

        task = asyncio.ensure_future(queued())
        await asyncio.sleep(0.03)
        ctrl.exit()
        waited = await task
        assert waited >= 0.02

    asyncio.run(run())


def test_retry_after_is_jittered_within_bounds():
    ctrl = controller(retry_after_s=0.5, retry_jitter_s=0.5)
    draws = {ctrl.retry_after() for _ in range(64)}
    assert all(0.5 <= d < 1.0 for d in draws)
    assert len(draws) > 8  # actually jittered, not constant


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_breaker_trips_opens_probes_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(
        threshold=2, cooldown_s=5.0, clock=clock,
        registry=MetricsRegistry(),
    )
    assert breaker.allow_full_path()
    breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow_full_path()  # cooling down
    clock.now += 5.1
    assert breaker.allow_full_path()  # the half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow_full_path()  # only one probe at a time
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow_full_path()


def test_breaker_failed_probe_reopens_immediately():
    clock = FakeClock()
    breaker = CircuitBreaker(
        threshold=1, cooldown_s=2.0, clock=clock,
        registry=MetricsRegistry(),
    )
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now += 2.5
    assert breaker.allow_full_path()
    breaker.record_failure()  # the probe failed
    assert breaker.state == "open"
    assert breaker.trips == 2
    assert not breaker.allow_full_path()  # a fresh cooldown started
    clock.now += 2.5
    assert breaker.allow_full_path()


def test_successful_request_resets_consecutive_failure_count():
    breaker = CircuitBreaker(threshold=3, registry=MetricsRegistry())
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # never 3 consecutive


@pytest.mark.parametrize(
    "kw",
    [
        {"max_inflight": 0},
        {"max_inflight": "8"},
        {"max_queue": -1},
        {"deadline_ms": 0},
        {"deadline_ms": "fast"},
        {"retry_after_s": -0.1},
        {"breaker_threshold": 0},
        {"breaker_cooldown_s": 0},
        {"drain_timeout_s": -1},
        {"checkpoint_every": -2},
        {"max_rows": 0},
        {"executor_workers": 0},
        {"executor": "thread"},
    ],
)
def test_service_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError) as info:
        ServiceConfig(**kw)
    assert list(kw)[0] in str(info.value)


def test_service_config_names_the_two_executors():
    with pytest.raises(ConfigError, match="serial, process") as info:
        ServiceConfig(executor="thread")
    assert info.value.option == "executor"


def test_service_config_limits_carry_the_remaining_budget():
    config = ServiceConfig(max_rows=50)
    limits = config.limits(123.0)
    assert limits.deadline_ms == 123.0
    assert limits.max_rows == 50
    assert limits.on_limit == "partial"
    assert config.limits(-5.0, partial=False).on_limit == "error"
    assert config.limits(-5.0).deadline_ms > 0  # clamped, never None
