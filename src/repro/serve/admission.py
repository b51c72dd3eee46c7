"""Admission control, load shedding, and the circuit breaker.

A serving stack dies two ways under overload: the queue grows without
bound until every request times out (congestion collapse), or one
poisoned dependency turns every request into a slow failure.  This
module is the service's defense against both, built from the engine's
own primitives: per-request :class:`repro.exec.limits.QueryLimits`
deadlines become admission semantics, and the store's typed corruption
errors become circuit-breaker trip signals.

Three layers, applied in order to every query request:

1. **Load shedding** — when the number of requests *waiting* for an
   execution slot reaches the watermark, new arrivals are refused
   immediately with 503 and a jittered ``Retry-After`` hint.  Refusing
   work we cannot start before its deadline is cheaper for everyone
   than queueing it to die.
2. **Bounded admission** — at most ``max_inflight`` searches execute
   concurrently (an ``asyncio.Semaphore``); a waiter whose remaining
   deadline expires in the queue is answered 504 without ever touching
   the engine.
3. **Circuit breaking** — a store :class:`repro.errors.
   IndexCorruptionError` or audit :class:`repro.errors.
   ScoreConsistencyError` trips the breaker; while open, searches
   fail fast onto the degraded serial single-shard path (conservative,
   cache-free, known-good) instead of hammering the failing one.  After
   a cooldown one probe request retries the full path; success closes
   the breaker.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from repro.errors import ConfigError, GraftError
from repro.exec.limits import QueryLimits
from repro.obs.metrics import (
    REGISTRY,
    admission_timeouts,
    breaker_transitions,
    inflight_requests,
    queued_requests,
    requests_shed,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the query service (validated at construction).

    Attributes:
        host/port: Listen address; port 0 binds an ephemeral port
            (the bound port is reported by :meth:`HttpServer.start`).
        max_inflight: Concurrent search executions (semaphore width).
            Sized to the executor: more inflight than worker threads
            just moves queueing somewhere less observable.
        max_queue: Admitted-but-waiting requests beyond which new
            arrivals are shed with 503 + ``Retry-After``.
        deadline_ms: Default per-request budget, queue wait included;
            the execution deadline handed to :class:`QueryLimits` is
            whatever remains after admission.  Clients may lower (never
            raise) it per request via ``?deadline_ms=``.
        max_rows: Optional row budget forwarded to every search.
        retry_after_s / retry_jitter_s: Backoff hint on shed responses:
            ``retry_after_s`` plus a uniform draw from
            ``[0, retry_jitter_s)``, so a thundering herd told to come
            back does not arrive in phase again.
        breaker_threshold: Consecutive trip-class failures that open
            the circuit breaker.
        breaker_cooldown_s: Open time before one probe request may try
            the full path again.
        drain_timeout_s: Graceful-shutdown budget for inflight requests
            before the server stops waiting.
        checkpoint_every: Auto-checkpoint (and hot-swap readers) after
            this many WAL-appended documents; 0 = only on demand via
            ``POST /admin/checkpoint``.
        shards: Shard count for reader engines (None = ``REPRO_SHARDS``
            or serial).
        executor: Sharded execution driver for reader engines:
            ``"serial"`` (the shards one after another in the serving
            process) or ``"process"`` (worker processes over a
            shared-memory packed index; docs/PERFORMANCE.md).  None
            keeps the engine default (``REPRO_EXEC`` or serial).  Each
            reader generation owns its worker pool; the hot swap retires
            the pool with the generation once inflight requests drain.
        executor_workers: Search thread-pool width (default
            ``max_inflight``).
        telemetry: Request telemetry (correlation ids, phase spans,
            slow capture, ``/debug/requests``+``/debug/slow``).  On by
            default; off restores the bare-engine request path (no
            per-request objects are allocated at all).
        slow_capacity: How many worst-case wide events the slow-request
            capture retains (per rolling window).
        slow_window_s: Rolling window for the slow capture — events
            older than this are pruned, so an old incident cannot pin
            the ring.
        slow_min_wall_ms: Wide events faster than this are never
            captured (0 keeps the N worst regardless of speed).
        qlog_path: Attach a structured query log
            (:class:`repro.obs.qlog.QueryLog`) at this path to every
            reader engine the service loads; None disables.  Records
            carry the request id, making them joinable with
            ``/debug/slow``.
        qlog_sample_rate / qlog_slow_ms: The attached log's sampling
            rate and slow threshold (see :class:`QueryLog`).
        profile_endpoint: Enable ``GET /debug/profile?seconds=N`` (the
            stdlib sampling profiler).  Off by default: profiling is a
            whole-process operation, so it must be an explicit opt-in
            even on a bind-local service.
        profile_max_seconds: Upper bound on one profile request's
            sampling duration.
        slos: Declarative objectives for the SLO engine, as parsed spec
            strings (see :func:`repro.obs.slo.parse_slo_spec`, e.g.
            ``"latency:p99:50ms:0.99"``).  Empty disables the engine
            (and ``/debug/slo`` answers 503).
        slo_shed: When True, a fast-window burn-rate breach arms the
            admission controller's pressure mode (shed at half the
            queue watermark) until the breach clears — defend the
            latency objective by refusing marginal work early.
        spans: Enable the unified span exporter: every finished query
            request becomes one OTLP-shaped span tree, retrievable at
            ``/debug/trace/<request_id>``.  Requires telemetry.
        spans_path: Also append each exported trace to this rotating
            JSONL file (one payload per line); None keeps traces
            in-memory only.
        spans_capacity: How many traces the in-memory ring retains.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    max_queue: int = 16
    deadline_ms: float = 1000.0
    max_rows: int | None = None
    retry_after_s: float = 0.5
    retry_jitter_s: float = 0.5
    breaker_threshold: int = 1
    breaker_cooldown_s: float = 5.0
    drain_timeout_s: float = 5.0
    checkpoint_every: int = 0
    shards: int | None = None
    executor: str | None = None
    executor_workers: int | None = None
    telemetry: bool = True
    slow_capacity: int = 32
    slow_window_s: float = 600.0
    slow_min_wall_ms: float = 0.0
    qlog_path: str | None = None
    qlog_sample_rate: float = 1.0
    qlog_slow_ms: float | None = 100.0
    profile_endpoint: bool = False
    profile_max_seconds: float = 30.0
    slos: tuple[str, ...] = ()
    slo_shed: bool = False
    spans: bool = False
    spans_path: str | None = None
    spans_capacity: int = 256

    def __post_init__(self):
        for name, minimum in (
            ("max_inflight", 1),
            ("max_queue", 0),
            ("breaker_threshold", 1),
            ("checkpoint_every", 0),
            ("slow_capacity", 1),
            ("spans_capacity", 1),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ConfigError(
                    f"must be an integer >= {minimum}, got {value!r}",
                    option=name,
                )
        for name in ("deadline_ms", "breaker_cooldown_s", "drain_timeout_s",
                     "slow_window_s", "profile_max_seconds"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(
                    f"must be a positive number, got {value!r}", option=name
                )
        for name in ("retry_after_s", "retry_jitter_s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigError(
                    f"must be a non-negative number, got {value!r}",
                    option=name,
                )
        if self.max_rows is not None and (
            not isinstance(self.max_rows, int) or self.max_rows < 1
        ):
            raise ConfigError(
                f"must be a positive integer or None, got {self.max_rows!r}",
                option="max_rows",
            )
        if self.executor is not None:
            # Reuse the engine's validator so serve rejects exactly the
            # values SearchEngine(executor=...) would; it raises a
            # ConfigError already labeled option="executor".
            from repro.api import _resolve_executor

            _resolve_executor(self.executor)
        if self.executor_workers is not None and (
            not isinstance(self.executor_workers, int)
            or self.executor_workers < 1
        ):
            raise ConfigError(
                f"must be a positive integer or None, "
                f"got {self.executor_workers!r}",
                option="executor_workers",
            )
        if not isinstance(self.slow_min_wall_ms, (int, float)) \
                or self.slow_min_wall_ms < 0:
            raise ConfigError(
                f"must be a non-negative number, "
                f"got {self.slow_min_wall_ms!r}",
                option="slow_min_wall_ms",
            )
        if not (0.0 <= self.qlog_sample_rate <= 1.0):
            raise ConfigError(
                f"must be within [0, 1], got {self.qlog_sample_rate!r}",
                option="qlog_sample_rate",
            )
        if self.qlog_slow_ms is not None and (
            not isinstance(self.qlog_slow_ms, (int, float))
            or self.qlog_slow_ms <= 0
        ):
            raise ConfigError(
                f"must be a positive number or None, "
                f"got {self.qlog_slow_ms!r}",
                option="qlog_slow_ms",
            )
        for spec in self.slos:
            try:
                from repro.obs.slo import parse_slo_spec

                parse_slo_spec(spec)
            except GraftError as exc:
                raise ConfigError(str(exc), option="slos") from None
        if self.slo_shed and not self.slos:
            raise ConfigError(
                "slo_shed requires at least one objective in slos",
                option="slo_shed",
            )
        if (self.slos or self.spans) and not self.telemetry:
            raise ConfigError(
                "SLOs and span export need per-request telemetry; "
                "remove --no-telemetry",
                option="telemetry",
            )
        if self.spans_path is not None and not self.spans:
            raise ConfigError(
                "spans_path is set but span export is disabled",
                option="spans_path",
            )

    def limits(self, deadline_ms: float, partial: bool = True) -> QueryLimits:
        """Per-request execution limits for the remaining budget."""
        return QueryLimits(
            deadline_ms=max(deadline_ms, 0.001),
            max_rows=self.max_rows,
            on_limit="partial" if partial else "error",
        )


class ShedRequest(GraftError):
    """The admission queue is at its watermark; carries the backoff hint."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class AdmissionTimeout(GraftError):
    """The request's deadline expired while waiting for an execution slot."""


class AdmissionController:
    """Bounded concurrency with watermark shedding.

    All counter mutations happen on the event loop thread, so plain
    integers are exact; the semaphore provides the actual waiting.
    Metrics gauges mirror the counters so ``/metrics`` exposes live
    queue depth and inflight count.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue: int,
        *,
        retry_after_s: float = 0.5,
        retry_jitter_s: float = 0.5,
        rng: random.Random | None = None,
        registry=REGISTRY,
    ):
        self._sem = asyncio.Semaphore(max_inflight)
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.queued = 0
        self.shed = 0
        self.admitted = 0
        self.timed_out = 0
        self._retry_after_s = retry_after_s
        self._retry_jitter_s = retry_jitter_s
        self._rng = rng if rng is not None else random.Random()
        self._registry = registry
        #: SLO-driven early shedding: while armed, the effective queue
        #: watermark is halved, so marginal work is refused while a
        #: latency objective is burning its budget too fast.
        self.pressure = False
        self.pressure_sheds = 0

    def set_pressure(self, armed: bool) -> None:
        """Arm/disarm early shedding (driven by the SLO engine)."""
        self.pressure = armed

    def effective_max_queue(self) -> int:
        if self.pressure:
            return self.max_queue // 2
        return self.max_queue

    def retry_after(self) -> float:
        """The jittered backoff hint for one shed response."""
        return self._retry_after_s + self._rng.uniform(
            0.0, self._retry_jitter_s
        )

    async def __aenter__(self):
        return await self.admit()

    async def __aexit__(self, *exc_info):
        self.exit()

    async def admit(self, timeout_s: float | None = None) -> float:
        """Wait for an execution slot; returns seconds spent queued.

        Raises :class:`ShedRequest` immediately at the queue watermark
        and :class:`AdmissionTimeout` when ``timeout_s`` elapses before
        a slot frees up.  On success the caller *must* pair with
        :meth:`exit` (or use the controller as an async context
        manager with the default timeout).
        """
        watermark = self.effective_max_queue()
        if self.queued >= watermark:
            self.shed += 1
            if self.pressure:
                self.pressure_sheds += 1
            requests_shed(self._registry).child().inc()
            detail = " [slo pressure]" if self.pressure else ""
            raise ShedRequest(
                f"admission queue at watermark ({self.queued} waiting, "
                f"{self.inflight} inflight){detail}",
                retry_after_s=self.retry_after(),
            )
        self.queued += 1
        queued_requests(self._registry).child().set(self.queued)
        started = time.monotonic()
        try:
            if timeout_s is None:
                await self._sem.acquire()
            else:
                await asyncio.wait_for(self._sem.acquire(), timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            self.timed_out += 1
            admission_timeouts(self._registry).child().inc()
            raise AdmissionTimeout(
                f"deadline expired after {time.monotonic() - started:.3f}s "
                f"in the admission queue"
            ) from None
        finally:
            self.queued -= 1
            queued_requests(self._registry).child().set(self.queued)
        self.inflight += 1
        self.admitted += 1
        inflight_requests(self._registry).child().set(self.inflight)
        return time.monotonic() - started

    def exit(self) -> None:
        """Release the slot taken by a successful :meth:`admit`."""
        self.inflight -= 1
        inflight_requests(self._registry).child().set(self.inflight)
        self._sem.release()


class CircuitBreaker:
    """Trip on consecutive integrity failures; recover via one probe.

    States: ``closed`` (normal), ``open`` (every request degraded until
    the cooldown elapses), ``half-open`` (one probe request runs the
    full path; its verdict closes or re-opens).  The service decides
    *what* degraded means — here lives only the state machine.
    """

    def __init__(
        self,
        threshold: int = 1,
        cooldown_s: float = 5.0,
        *,
        clock=time.monotonic,
        registry=REGISTRY,
    ):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.trips = 0
        self._failures = 0
        self._opened_at: float | None = None
        self._clock = clock
        self._registry = registry

    def _enter(self, state: str) -> None:
        if state != self.state:
            self.state = state
            breaker_transitions(self._registry).labels(state=state).inc()

    def allow_full_path(self) -> bool:
        """Should this request run the normal (non-degraded) path?

        While open, returns False until the cooldown has elapsed; the
        first caller after cooldown becomes the half-open probe and gets
        True.  Exactly one probe runs at a time because the transition
        happens synchronously on the event loop.
        """
        if self.state == "closed":
            return True
        if self.state == "half-open":
            return False  # a probe is already in flight
        assert self._opened_at is not None
        if self._clock() - self._opened_at >= self.cooldown_s:
            self._enter("half-open")
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        if self.state != "closed":
            self._enter("closed")
            self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self.state == "half-open" or self._failures >= self.threshold:
            self.trips += 1 if self.state != "open" else 0
            self._enter("open")
            self._opened_at = self._clock()
