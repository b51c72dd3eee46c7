"""Request-scoped telemetry: correlation IDs, phase spans, slow capture.

This is the per-request layer of the observability stack (Layer 6 in
``docs/OBSERVABILITY.md``).  The per-operator :class:`~repro.obs.trace.
TraceNode` tree answers "what did the *plan* do"; this module answers
"where did *this request* spend its wall time" — a fixed phase timeline
(queue-wait, parse, canonicalize, optimize, plan-cache, execute, merge,
audit, serialize) measured on the monotonic clock, linked to the trace
tree and the query log by a shared correlation id.

Design constraints:

* **Zero overhead when off.**  Instrumented code calls
  :func:`maybe_span` / :func:`current`; with no active request context
  both are a ``ContextVar.get`` returning ``None`` plus an ``is None``
  branch, and :func:`maybe_span` hands back a shared no-op singleton —
  no allocation, no locking, no clock reads.
* **Thread-tolerant.**  The service executes the engine call on a
  worker thread via ``run_in_executor``, which does *not* propagate
  ``contextvars``; callers re-bind explicitly with :func:`bound`.
  Span bookkeeping takes a per-request lock so ``/debug/requests``
  snapshots taken from the event loop never race a worker mid-span.
* **Bounded memory.**  The slow-request capture keeps the N worst wide
  events inside a rolling window; the in-flight table holds only live
  requests; the rolling latency window prunes by age and length.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Iterable

__all__ = [
    "PHASES",
    "RequestTelemetry",
    "SlowRequestCapture",
    "RollingStats",
    "TelemetryHub",
    "new_request_id",
    "current",
    "activate",
    "deactivate",
    "bound",
    "maybe_span",
    "span",
    "attribute_phases",
    "render_attribution",
    "summarize",
    "merge_status_summaries",
]

# The fixed per-request phase timeline, in the order the request moves
# through the stack.  Phases are disjoint wall-time intervals, so their
# sum approximates the request's total wall time; ``unattributed_ms``
# in the wide event is the (clamped) remainder.
PHASES = (
    "queue_wait",
    "parse",
    "canonicalize",
    "optimize",
    "plan_cache",
    "execute",
    "merge",
    "audit",
    "serialize",
)

_MAX_REQUEST_ID_LEN = 128

# ---------------------------------------------------------------------------
# Correlation ids (ULID-style: sortable timestamp prefix + randomness)
# ---------------------------------------------------------------------------

_CROCKFORD = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"


def new_request_id(now_ms: int | None = None) -> str:
    """Return a 26-char ULID-style id: 48-bit ms timestamp + 80-bit random.

    Crockford base32, lexicographically sortable by creation time,
    stdlib-only (no ``uuid`` dependency on the hot path).
    """
    ts = int(time.time() * 1000) if now_ms is None else int(now_ms)
    rand = int.from_bytes(os.urandom(10), "big")
    value = ((ts & (1 << 48) - 1) << 80) | rand
    chars = [""] * 26
    for i in range(25, -1, -1):
        chars[i] = _CROCKFORD[value & 31]
        value >>= 5
    return "".join(chars)


def sanitize_request_id(raw: str | None) -> str | None:
    """Validate a client-supplied ``X-Request-Id``; ``None`` if unusable.

    Accepts printable ASCII (no CR/LF/controls, no quotes) up to 128
    chars — enough for UUIDs, ULIDs, and tracing-system ids — so a
    hostile header can't smuggle bytes into responses or log lines.
    """
    if not raw:
        return None
    rid = raw.strip()
    if not rid or len(rid) > _MAX_REQUEST_ID_LEN:
        return None
    for ch in rid:
        if not ("!" <= ch <= "~") or ch == '"' or ch == "\\":
            return None
    return rid


# ---------------------------------------------------------------------------
# Per-request state + spans
# ---------------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing context manager for the telemetry-off path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _Span:
    """One timed phase.  Cheap on purpose: two clock reads + a dict add."""

    __slots__ = ("_rt", "_name", "_start")

    def __init__(self, rt: "RequestTelemetry", name: str) -> None:
        self._rt = rt
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        self._rt._enter_phase(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        elapsed_ms = (end - self._start) / 1e6
        start_off_ms = (self._start - self._rt._started_ns) / 1e6
        self._rt._exit_phase(self._name, elapsed_ms, start_off_ms)


class RequestTelemetry:
    """Mutable per-request record: id, phase timings, notes, shards.

    Instances are created by :class:`TelemetryHub.begin` (or directly in
    tests), bound to the request's task/thread via :func:`activate` /
    :func:`bound`, and finalized by :class:`TelemetryHub.finish` into an
    immutable *wide event* dict.
    """

    __slots__ = (
        "request_id",
        "route",
        "query",
        "scheme",
        "started_ts",
        "_started_ns",
        "_lock",
        "_phase_ms",
        "_phase_spans",
        "_shards",
        "_shard_offs",
        "_notes",
        "_trace",
        "current_phase",
        "wall_ms",
        "status",
    )

    def __init__(
        self,
        request_id: str | None = None,
        route: str = "",
        query: str = "",
        scheme: str = "",
    ) -> None:
        self.request_id = request_id or new_request_id()
        self.route = route
        self.query = query
        self.scheme = scheme
        self.started_ts = time.time()
        self._started_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._phase_ms: dict[str, float] = {}
        # Real span windows, (name, start_off_ms, dur_ms) relative to the
        # request start — the raw material the unified span exporter
        # (repro.obs.spans) turns into an OTLP-shaped tree.  Kept off the
        # wide event on purpose: its schema is closed.
        self._phase_spans: list[tuple[str, float, float]] = []
        self._shards: list[dict[str, Any]] = []
        # Shard start offsets (ms), parallel to ``_shards``; same
        # closed-schema reasoning as ``_phase_spans``.
        self._shard_offs: list[float] = []
        self._notes: dict[str, Any] = {}
        # Operator trace tree (TraceNode.to_dict) attached by the engine
        # when the request was profiled; consumed by the span exporter.
        self._trace: dict[str, Any] | None = None
        self.current_phase: str | None = None
        self.wall_ms: float | None = None
        self.status: int | None = None

    # -- spans --------------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _enter_phase(self, name: str) -> None:
        with self._lock:
            self.current_phase = name

    def _exit_phase(
        self, name: str, elapsed_ms: float, start_off_ms: float | None = None
    ) -> None:
        with self._lock:
            self._phase_ms[name] = self._phase_ms.get(name, 0.0) + elapsed_ms
            if start_off_ms is not None:
                self._phase_spans.append(
                    (name, max(0.0, start_off_ms), elapsed_ms)
                )
            self.current_phase = None

    def add_phase_ms(self, name: str, elapsed_ms: float) -> None:
        """Record a phase measured externally (e.g. admission queue wait).

        The span window is synthesized as ending *now*: external phases
        are reported right after they complete, so "the last elapsed_ms"
        is the honest reconstruction of when they ran.
        """
        start_off_ms = max(0.0, self.age_ms() - elapsed_ms)
        with self._lock:
            self._phase_ms[name] = self._phase_ms.get(name, 0.0) + elapsed_ms
            self._phase_spans.append((name, start_off_ms, elapsed_ms))

    # -- extras -------------------------------------------------------------

    def add_shard(self, shard_id: int, wall_ms: float, *,
                  rows: int = 0, tripped: bool = False) -> None:
        start_off_ms = max(0.0, self.age_ms() - wall_ms)
        with self._lock:
            self._shards.append(
                {"shard": shard_id, "wall_ms": round(wall_ms, 3),
                 "rows": rows, "tripped": tripped}
            )
            self._shard_offs.append(start_off_ms)

    def note(self, key: str, value: Any) -> None:
        with self._lock:
            self._notes[key] = value

    def set_trace(self, tree: dict[str, Any] | None) -> None:
        """Attach a profiled operator tree (``TraceNode.to_dict``)."""
        with self._lock:
            self._trace = tree

    def trace(self) -> dict[str, Any] | None:
        with self._lock:
            return self._trace

    # -- snapshots ----------------------------------------------------------

    def age_ms(self) -> float:
        return (time.perf_counter_ns() - self._started_ns) / 1e6

    def phases(self) -> dict[str, float]:
        with self._lock:
            return dict(self._phase_ms)

    def phase_spans(self) -> list[tuple[str, float, float]]:
        """Real span windows (name, start_off_ms, dur_ms) in close order."""
        with self._lock:
            return list(self._phase_spans)

    def shard_spans(self) -> list[tuple[dict[str, Any], float]]:
        """(shard record, start_off_ms) pairs, in recording order."""
        with self._lock:
            return [
                (dict(s), off)
                for s, off in zip(self._shards, self._shard_offs)
            ]

    def finish(self, status: int) -> float:
        """Freeze wall time + status; returns wall ms."""
        self.wall_ms = (time.perf_counter_ns() - self._started_ns) / 1e6
        self.status = status
        return self.wall_ms

    def inflight_view(self) -> dict[str, Any]:
        with self._lock:
            return {
                "request_id": self.request_id,
                "route": self.route,
                "query": self.query,
                "scheme": self.scheme,
                "age_ms": round(self.age_ms(), 3),
                "current_phase": self.current_phase,
                "phase_ms": {k: round(v, 3) for k, v in self._phase_ms.items()},
            }

    def to_wide_event(self) -> dict[str, Any]:
        """The finalized one-record-per-request event (see trace_schema)."""
        wall = self.wall_ms if self.wall_ms is not None else self.age_ms()
        with self._lock:
            phase_ms = {k: round(v, 3) for k, v in self._phase_ms.items()}
            shards = [dict(s) for s in self._shards]
            notes = dict(self._notes)
        attributed = sum(phase_ms.values())
        return {
            "request_id": self.request_id,
            "route": self.route,
            "query": self.query,
            "scheme": self.scheme,
            "status": self.status if self.status is not None else 0,
            "ts": self.started_ts,
            "wall_ms": round(wall, 3),
            "phase_ms": phase_ms,
            "unattributed_ms": round(max(0.0, wall - attributed), 3),
            "shards": shards,
            "notes": notes,
        }


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[RequestTelemetry | None] = ContextVar(
    "graft_request_telemetry", default=None
)


def current() -> RequestTelemetry | None:
    """The telemetry record bound to this task/thread, or ``None``."""
    return _ACTIVE.get()


def activate(rt: RequestTelemetry):
    """Bind *rt* to the current context; returns a token for deactivate."""
    return _ACTIVE.set(rt)


def deactivate(token) -> None:
    _ACTIVE.reset(token)


class bound:
    """Re-bind a request context inside a worker thread.

    ``loop.run_in_executor`` does **not** carry contextvars across the
    thread hop, so the service wraps the engine call::

        with telemetry.bound(rt):
            outcome = engine.search(...)

    ``bound(None)`` is a no-op, which keeps call sites branch-free.
    """

    __slots__ = ("_rt", "_token")

    def __init__(self, rt: RequestTelemetry | None) -> None:
        self._rt = rt
        self._token = None

    def __enter__(self) -> RequestTelemetry | None:
        if self._rt is not None:
            self._token = _ACTIVE.set(self._rt)
        return self._rt

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


def maybe_span(rt: RequestTelemetry | None, name: str):
    """Span on *rt* if a request is being traced, else the no-op singleton.

    This is the instrumentation idiom for hot paths: fetch ``rt =
    telemetry.current()`` once per request, then guard each phase with
    ``with telemetry.maybe_span(rt, "parse"): ...``.
    """
    if rt is None:
        return NOOP_SPAN
    return rt.span(name)


def span(name: str):
    """Span on the context-bound request, no-op when none is active."""
    rt = _ACTIVE.get()
    if rt is None:
        return NOOP_SPAN
    return rt.span(name)


# ---------------------------------------------------------------------------
# Slow-request capture + in-flight table + rolling latency window
# ---------------------------------------------------------------------------


class SlowRequestCapture:
    """Bounded ring of the N worst wide events inside a rolling window.

    ``offer`` is O(capacity) under a lock — capacity is small (default
    32) and offers happen once per request, off the engine hot path.
    Events older than ``window_s`` are pruned on every offer/snapshot so
    yesterday's incident can't pin the ring forever.
    """

    def __init__(
        self,
        capacity: int = 32,
        window_s: float = 600.0,
        min_wall_ms: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.window_s = window_s
        self.min_wall_ms = min_wall_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._events: list[tuple[float, dict[str, Any]]] = []
        self.offered = 0
        self.captured = 0

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        self._events = [(t, e) for (t, e) in self._events if t >= horizon]

    def offer(self, event: dict[str, Any]) -> bool:
        """Consider *event* for capture; True if it entered the ring."""
        wall = float(event.get("wall_ms", 0.0))
        if wall < self.min_wall_ms:
            return False
        now = self._clock()
        with self._lock:
            self.offered += 1
            self._prune(now)
            if len(self._events) < self.capacity:
                self._events.append((now, event))
                self.captured += 1
                return True
            worst_idx = min(
                range(len(self._events)),
                key=lambda i: float(self._events[i][1].get("wall_ms", 0.0)),
            )
            if wall > float(self._events[worst_idx][1].get("wall_ms", 0.0)):
                self._events[worst_idx] = (now, event)
                self.captured += 1
                return True
            return False

    def snapshot(self, n: int | None = None) -> list[dict[str, Any]]:
        """Captured events, slowest first."""
        now = self._clock()
        with self._lock:
            self._prune(now)
            events = [e for (_, e) in self._events]
        events.sort(key=lambda e: float(e.get("wall_ms", 0.0)), reverse=True)
        if n is not None:
            events = events[:n]
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class RollingStats:
    """Rolling latency/outcome window feeding the ``/status`` summary.

    Keeps (time, wall_ms, status) tuples for query requests inside
    ``window_s`` (length-capped), and derives p50/p95/p99 plus shed and
    error rates on demand.
    """

    def __init__(
        self,
        window_s: float = 300.0,
        max_samples: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.window_s = window_s
        self.max_samples = max_samples
        self._clock = clock
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float, int]] = []

    def observe(self, wall_ms: float, status: int) -> None:
        now = self._clock()
        with self._lock:
            self._samples.append((now, wall_ms, status))
            if len(self._samples) > self.max_samples:
                del self._samples[: len(self._samples) - self.max_samples]

    def samples(self) -> list[tuple[float, float, int]]:
        """The (time, wall_ms, status) samples inside the window."""
        horizon = self._clock() - self.window_s
        with self._lock:
            self._samples = [s for s in self._samples if s[0] >= horizon]
            return list(self._samples)

    def summary(self) -> dict[str, Any]:
        return summarize(self.samples(), self.window_s)


def summarize(samples, window_s: float) -> dict[str, Any]:
    """Percentiles and outcome rates over (time, wall_ms, status) samples
    — one process's window, or the union of several processes' windows."""
    total = len(samples)
    ok = [w for (_, w, s) in samples if 200 <= s < 300]
    shed = sum(1 for (_, _, s) in samples if s == 503)
    timeout = sum(1 for (_, _, s) in samples if s == 504)
    client_err = sum(1 for (_, _, s) in samples if 400 <= s < 500)
    server_err = sum(
        1 for (_, _, s) in samples if s >= 500 and s not in (503, 504)
    )
    latency = {
        "p50": round(percentile(ok, 0.50), 3) if ok else None,
        "p95": round(percentile(ok, 0.95), 3) if ok else None,
        "p99": round(percentile(ok, 0.99), 3) if ok else None,
    }
    return {
        "window_s": window_s,
        "requests": total,
        "ok": len(ok),
        "shed": shed,
        "timeout": timeout,
        "client_error": client_err,
        "server_error": server_err,
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "error_rate": round(
            (server_err + timeout) / total, 4
        ) if total else 0.0,
        "latency_ms": latency,
    }


class TelemetryHub:
    """Service-owned aggregation point: in-flight table, slow capture,
    rolling latency window.  One hub per :class:`QueryService`."""

    def __init__(
        self,
        slow_capacity: int = 32,
        slow_window_s: float = 600.0,
        slow_min_wall_ms: float = 0.0,
        rolling_window_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        exporter=None,
    ) -> None:
        self.slow = SlowRequestCapture(
            capacity=slow_capacity,
            window_s=slow_window_s,
            min_wall_ms=slow_min_wall_ms,
            clock=clock,
        )
        self.rolling = RollingStats(window_s=rolling_window_s, clock=clock)
        #: Optional unified span exporter (repro.obs.spans.SpanExporter);
        #: fed every finished query request.
        self.exporter = exporter
        #: Optional ``callable(wall_ms, status)`` invoked once per
        #: finished query request (the SLO engine's intake).
        self.on_search_finish: Callable[[float, int], None] | None = None
        self._lock = threading.Lock()
        self._inflight: dict[str, RequestTelemetry] = {}
        self.started = 0
        self.finished = 0

    def begin(
        self,
        request_id: str | None = None,
        route: str = "",
        query: str = "",
        scheme: str = "",
    ) -> RequestTelemetry:
        rt = RequestTelemetry(
            request_id=request_id, route=route, query=query, scheme=scheme
        )
        with self._lock:
            self.started += 1
            self._inflight[rt.request_id] = rt
        return rt

    def finish(self, rt: RequestTelemetry, status: int) -> dict[str, Any]:
        """Finalize *rt*: drop from in-flight, feed rolling stats and the
        slow capture (query routes only), and return the wide event."""
        wall = rt.finish(status)
        with self._lock:
            self.finished += 1
            self._inflight.pop(rt.request_id, None)
        event = rt.to_wide_event()
        if rt.route == "/search":
            self.rolling.observe(wall, status)
            self.slow.offer(event)
            if self.exporter is not None:
                self.exporter.export(rt)
            if self.on_search_finish is not None:
                self.on_search_finish(wall, status)
        return event

    def inflight(self) -> list[dict[str, Any]]:
        with self._lock:
            views = [rt.inflight_view() for rt in self._inflight.values()]
        views.sort(key=lambda v: v["age_ms"], reverse=True)
        return views

    def status_summary(self) -> dict[str, Any]:
        return merge_status_summaries([self.export()])

    def export(self) -> dict[str, Any]:
        """What :func:`merge_status_summaries` needs from this hub: the
        raw rolling samples, not their percentiles, which do not add."""
        return {
            "window_s": self.rolling.window_s,
            "samples": self.rolling.samples(),
            "inflight": len(self._inflight),
            "slow_captured": len(self.slow),
            "slow_offered": self.slow.offered,
        }


def merge_status_summaries(exports: list[dict[str, Any]]) -> dict[str, Any]:
    """The ``/status.telemetry`` summary of several hubs (one per server
    process): percentiles recomputed over the union of their samples,
    counts added."""
    summary = summarize(
        [s for e in exports for s in e["samples"]], exports[0]["window_s"]
    )
    for key in ("inflight", "slow_captured", "slow_offered"):
        summary[key] = sum(e[key] for e in exports)
    return summary


# ---------------------------------------------------------------------------
# Aggregation: "where does p99 go"
# ---------------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile; 0.0 on empty input."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def attribute_phases(
    events: list[dict[str, Any]], tail_q: float = 0.99
) -> dict[str, Any]:
    """Aggregate wide events into a per-phase tail-latency attribution.

    Two complementary views:

    * ``phases`` — per-phase p50/p95/p99 across all events (how bad can
      each phase individually get);
    * ``attribution`` — the mean phase breakdown over the slowest
      ``1 - tail_q`` fraction of events (where does the tail actually
      spend its time), with each phase's share of that tail wall time.
      Shares are the actionable number: they sum to ~1.0.
    """
    events = [e for e in events if isinstance(e.get("phase_ms"), dict)]
    if not events:
        return {"events": 0, "wall_ms": {}, "phases": {}, "attribution": []}

    walls = [float(e.get("wall_ms", 0.0)) for e in events]
    names: list[str] = []
    for e in events:
        for name in e["phase_ms"]:
            if name not in names:
                names.append(name)
    # Stable, pipeline-ordered phase listing (unknown names appended).
    names.sort(key=lambda n: (PHASES.index(n) if n in PHASES else len(PHASES)))

    per_phase: dict[str, dict[str, float]] = {}
    for name in names:
        vals = [float(e["phase_ms"].get(name, 0.0)) for e in events]
        per_phase[name] = {
            "p50": round(percentile(vals, 0.50), 3),
            "p95": round(percentile(vals, 0.95), 3),
            "p99": round(percentile(vals, 0.99), 3),
            "max": round(max(vals), 3),
        }

    # Tail attribution: mean breakdown over the slowest events.
    cutoff = percentile(walls, tail_q)
    tail = [e for e in events if float(e.get("wall_ms", 0.0)) >= cutoff]
    if not tail:
        tail = sorted(
            events, key=lambda e: float(e.get("wall_ms", 0.0)), reverse=True
        )[:1]
    tail_wall = sum(float(e.get("wall_ms", 0.0)) for e in tail)
    attribution = []
    attributed = 0.0
    for name in names:
        total = sum(float(e["phase_ms"].get(name, 0.0)) for e in tail)
        attributed += total
        attribution.append(
            {
                "phase": name,
                "mean_ms": round(total / len(tail), 3),
                "share": round(total / tail_wall, 4) if tail_wall else 0.0,
            }
        )
    if tail_wall > attributed:
        attribution.append(
            {
                "phase": "(unattributed)",
                "mean_ms": round((tail_wall - attributed) / len(tail), 3),
                "share": round((tail_wall - attributed) / tail_wall, 4),
            }
        )
    attribution.sort(key=lambda row: row["share"], reverse=True)

    return {
        "events": len(events),
        "tail_events": len(tail),
        "tail_q": tail_q,
        "wall_ms": {
            "p50": round(percentile(walls, 0.50), 3),
            "p95": round(percentile(walls, 0.95), 3),
            "p99": round(percentile(walls, 0.99), 3),
            "max": round(max(walls), 3),
        },
        "phases": per_phase,
        "attribution": attribution,
    }


def render_attribution(report: dict[str, Any]) -> str:
    """Human-readable table for ``repro slow``."""
    if not report.get("events"):
        return "no captured events"
    lines = []
    wall = report["wall_ms"]
    lines.append(
        f"{report['events']} events; wall ms p50={wall['p50']} "
        f"p95={wall['p95']} p99={wall['p99']} max={wall['max']}"
    )
    lines.append(
        f"tail attribution over the {report['tail_events']} slowest "
        f"event(s) (>= p{int(report['tail_q'] * 100)}):"
    )
    lines.append(
        f"  {'phase':<16} {'share':>7} {'mean_ms':>9} "
        f"{'p50':>9} {'p95':>9} {'p99':>9}"
    )
    phases = report["phases"]
    for row in report["attribution"]:
        name = row["phase"]
        stats = phases.get(name, {})
        lines.append(
            f"  {name:<16} {row['share'] * 100:>6.1f}% {row['mean_ms']:>9.3f} "
            f"{stats.get('p50', 0.0):>9.3f} {stats.get('p95', 0.0):>9.3f} "
            f"{stats.get('p99', 0.0):>9.3f}"
        )
    return "\n".join(lines)
