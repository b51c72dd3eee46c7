"""The query service core: immutable readers, one writer, atomic swap.

The serving model is the store's generational design lifted into a
process (docs/SERVICE.md):

* **Readers** hold an engine loaded from one store generation (plus the
  WAL records durable at load time).  A loaded reader is immutable —
  searches never mutate it — so any number of concurrent searches can
  share it without coordination beyond the thread-safe query cache.
* **One writer** (a :meth:`repro.api.SearchEngine.open`\\ ed engine,
  holding the store's advisory lock) WAL-appends added documents and
  periodically compacts them into a new generation via
  :meth:`checkpoint`.
* **The swap** is the only moment the two meet: after a checkpoint the
  service loads a *new* reader from the new generation off the request
  path, pins that generation against store GC, and atomically replaces
  the current handle.  Requests already executing keep their pinned old
  handle until they finish (refcount), so no request ever observes a
  torn generation — each sees exactly one.  When the old handle's
  refcount drains, its store pin is released and the old generation
  becomes garbage.

A server running several processes (:mod:`repro.serve.supervisor`)
keeps one full service in the parent and, in each forked child, a
copy turned :meth:`QueryService.reader_only`, whose pins the parent
holds.

The writer is *expendable* by design: if it dies mid-checkpoint (chaos
harness, real crash), readers keep serving the last durable generation
and :meth:`QueryService.revive_writer` reopens the store — which
repairs the WAL tail and collects the dead checkpoint's residue, the
same recovery path a process restart would take.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api import SearchEngine, SearchOutcome
from repro.errors import (
    GraftError,
    IndexCorruptionError,
    QueryTimeoutError,
    ResourceExhaustedError,
    ScoreConsistencyError,
)
from repro.exec.cache import CacheConfig
from repro.obs import telemetry
from repro.obs.metrics import (
    REGISTRY,
    degraded_serial_requests,
    generation_swaps,
    swap_seconds,
)
from repro.obs.telemetry import TelemetryHub
from repro.serve.admission import (
    AdmissionController,
    AdmissionTimeout,
    CircuitBreaker,
    ServiceConfig,
    ShedRequest,
)
from repro.serve.http import HttpError


@dataclass
class GenerationHandle:
    """One immutable reader generation, refcounted by live requests.

    ``engine`` executes the configured (possibly sharded, cached) path;
    ``serial_engine`` shares the same collection and index but is pinned
    serial with caches off — the known-good fail-fast path the circuit
    breaker degrades to.  ``refs`` counts requests currently executing
    against this handle; a retired handle whose refs drain to zero
    releases its store-generation pin.
    """

    engine: SearchEngine
    serial_engine: SearchEngine
    generation: str | None
    refs: int = 0
    retired: bool = False
    release_pin: "callable | None" = field(default=None, repr=False)

    def drained(self) -> None:
        # Shut the engine's process worker pool (and shared-memory
        # segment) down with the generation: once the last pinned
        # request finishes, nothing can route a query at this handle
        # again, so keeping workers attached to the retired index would
        # only pin memory.  No-op for thread/serial engines.
        self.engine.close()
        if self.release_pin is not None:
            self.release_pin()
            self.release_pin = None


class _ReaderSet:
    """The current handle plus the pin/release/swap protocol.

    Guarded by a real lock, not event-loop discipline: searches release
    their pins from executor threads' completion callbacks in tests and
    benchmarks, so the invariants must hold under preemption.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.current: GenerationHandle | None = None
        self.epoch = 0
        self.swaps = 0

    def pin(self) -> tuple[GenerationHandle, int]:
        with self._lock:
            handle = self.current
            if handle is None:
                raise HttpError(503, "no reader generation loaded")
            handle.refs += 1
            return handle, self.epoch

    def release(self, handle: GenerationHandle) -> None:
        drained = False
        with self._lock:
            handle.refs -= 1
            drained = handle.retired and handle.refs == 0
        if drained:
            handle.drained()

    def swap(self, new: GenerationHandle) -> GenerationHandle | None:
        """Install ``new`` as current; returns the retired old handle."""
        drained = False
        with self._lock:
            old = self.current
            self.current = new
            self.epoch += 1
            if old is not None:
                # The initial install is not a swap: ``swaps`` mirrors
                # graft_generation_swaps_total, which counts handoffs.
                self.swaps += 1
                old.retired = True
                drained = old.refs == 0
        if old is not None and drained:
            old.drained()
        return old


class WriterDead(GraftError):
    """The background writer has crashed and was not revived yet."""


class QueryService:
    """HTTP-agnostic service core: admission, search, ingest, swap.

    The async surface (:mod:`repro.serve.server`) is a thin framing
    layer over this class, so the chaos and overload tests drive the
    exact production logic in-process without sockets.
    """

    def __init__(
        self,
        store_dir,
        config: ServiceConfig | None = None,
        *,
        analyzer=None,
        store_faults=None,
        registry=REGISTRY,
    ):
        self.store_dir = store_dir
        self.config = config if config is not None else ServiceConfig()
        self.analyzer = analyzer
        #: Chaos harness only: a StoreFaultInjector threaded into the
        #: writer's store ops.  Revival always reopens unfaulted — the
        #: recovery path is the thing under test, not another victim.
        self._store_faults = store_faults
        self.registry = registry
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_queue,
            retry_after_s=self.config.retry_after_s,
            retry_jitter_s=self.config.retry_jitter_s,
            registry=registry,
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_cooldown_s,
            registry=registry,
        )
        self.readers = _ReaderSet()
        #: Unified span exporter (docs/OBSERVABILITY.md Layer 7): one
        #: OTLP-shaped trace per finished query request, served back at
        #: ``/debug/trace/<id>``.  None unless ``config.spans``.
        self.spans = None
        if self.config.spans:
            from repro.obs.spans import SpanExporter

            self.spans = SpanExporter(
                ring_capacity=self.config.spans_capacity,
                path=self.config.spans_path,
                registry=registry,
            )
        #: SLO engine (Layer 7): declarative objectives judged by
        #: multi-window burn rates; served at ``/debug/slo``.
        self.slo = None
        if self.config.slos:
            from repro.obs.slo import SloEngine, parse_slo_spec

            self.slo = SloEngine(
                [parse_slo_spec(s) for s in self.config.slos],
                registry=registry,
            )
        #: Request telemetry (docs/OBSERVABILITY.md Layer 6): in-flight
        #: table, slow-request capture, rolling latency window.  None
        #: when disabled — every instrumentation site then short-circuits
        #: on an ``is None`` check and allocates nothing.
        self.telemetry: TelemetryHub | None = (
            TelemetryHub(
                slow_capacity=self.config.slow_capacity,
                slow_window_s=self.config.slow_window_s,
                slow_min_wall_ms=self.config.slow_min_wall_ms,
                exporter=self.spans,
            )
            if self.config.telemetry else None
        )
        if self.telemetry is not None and self.slo is not None:
            # Every finished /search request — success, shed, timeout —
            # flows through the hub exactly once, so this is the one
            # place SLO outcomes are counted.
            self.telemetry.on_search_finish = self._observe_slo
        self._qlog = None
        if self.config.qlog_path:
            from repro.obs.qlog import QueryLog

            self._qlog = QueryLog(
                self.config.qlog_path,
                sample_rate=self.config.qlog_sample_rate,
                slow_ms=self.config.qlog_slow_ms,
            )
        self.started = False
        self.draining = False
        #: "writer" (owns the writer and a reader) or "reader" (a forked
        #: server process that only reads; :meth:`reader_only`).
        self.role = "writer"
        #: Reader generations this process loaded itself.
        self.loads = 0
        self._pin = self._pin_locally
        #: ``async callable(generation)`` run under the swap lock after
        #: this process swapped its readers: the supervisor swaps the
        #: other server processes' readers there.
        self.after_swap = None
        self._writer: SearchEngine | None = None
        self._writer_fault: BaseException | None = None
        self._wal_since_checkpoint = 0
        self._swap_lock = asyncio.Lock()
        workers = self.config.executor_workers or self.config.max_inflight
        self._search_executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="graft-search"
        )
        # One writer thread: WAL appends and checkpoints are inherently
        # serial (single advisory lock), so serialization by executor
        # width is simpler and stricter than locking inside the engine.
        self._writer_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="graft-writer"
        )

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Open the writer, load the first reader generation, go ready.

        Blocking and thread-free, so a server can call it before it
        forks its reader processes (:mod:`repro.serve.supervisor`).
        """
        self._writer = self._open_writer()
        self.readers.swap(self._build_handle())
        self.started = True

    async def start(self) -> None:
        """:meth:`open` off the event loop."""
        await asyncio.get_running_loop().run_in_executor(
            self._writer_executor, self.open
        )

    def reader_only(self, pin) -> None:
        """Turn this service into a reader of a store another process
        writes: a forked server process keeps the inherited reader and
        serves searches, and never touches the writer.

        ``pin(generation)`` pins a generation on the writer's side and
        returns the callable that releases that pin; every handle this
        service holds, the inherited one included, releases through it.
        """
        self.role = "reader"
        self.loads = 0  # the reader it holds was loaded by the writer
        self._writer = None
        self._pin = pin
        handle = self.readers.current
        handle.release_pin = pin(handle.generation)

    def _pin_locally(self, generation: str):
        """Pin ``generation`` in this process; returns the release."""
        from repro.index.store import IndexStore

        store = IndexStore(self.store_dir)
        store.pin_generation(generation)
        return lambda: store.release_generation(generation)

    def _open_writer(self) -> SearchEngine:
        from repro.index.store import IndexStore

        store = IndexStore(self.store_dir)
        lock = store.lock().acquire(retries=5, backoff_s=0.05)
        lock.release()  # SearchEngine.open re-acquires; we only waited out
        return SearchEngine.open(
            self.store_dir,
            analyzer=self.analyzer,
            faults=self._store_faults,
        )

    def _build_handle(self) -> GenerationHandle:
        """Load, shard-configure, pre-build and pin one reader."""
        engine = SearchEngine.load(self.store_dir, analyzer=self.analyzer)
        self.loads += 1
        if self.config.shards is not None:
            engine.shards = self.config.shards
        if self.config.executor is not None:
            engine.executor = self.config.executor
        index = engine.index  # force-build off the request path
        if engine.executor == "process" and engine.shards > 1:
            # Pay the pack+publish+fork cost here, off the request
            # path, exactly like the force-built index above; a pool
            # that cannot start degrades to in-process shards with a
            # warning now instead of on the first query.
            engine._process_pool()
        # shards=1 explicitly: the degraded path must stay serial even
        # when REPRO_SHARDS is set in the environment.
        serial = SearchEngine(
            collection=engine.collection, shards=1, cache=CacheConfig.off()
        )
        serial._index = index
        if self._qlog is not None:
            # Both paths log: a request degraded onto the serial engine
            # is exactly the kind the log must not lose.
            engine.qlog = self._qlog
            serial.qlog = self._qlog
        generation = engine.loaded_generation
        return GenerationHandle(
            engine=engine,
            serial_engine=serial,
            generation=generation,
            release_pin=(
                self._pin(generation) if generation is not None else None
            ),
        )

    async def load_and_swap(self) -> GenerationHandle | None:
        """Load the store's current generation off the request path and
        swap it in; returns the retired handle."""
        handle = await asyncio.get_running_loop().run_in_executor(
            self._search_executor, self._build_handle
        )
        return self.readers.swap(handle)

    async def stop(self) -> None:
        """Release the writer lock and retire the readers."""
        self.draining = True
        self.started = False
        writer, self._writer = self._writer, None
        if writer is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._writer_executor, writer.close
            )
        old = self.readers.swap(
            GenerationHandle(
                engine=SearchEngine(), serial_engine=SearchEngine(),
                generation=None,
            )
        )
        if old is not None:
            pass  # retired; pin released once inflight requests drain
        self._search_executor.shutdown(wait=False)
        self._writer_executor.shutdown(wait=False)

    # -- serving -----------------------------------------------------------

    async def search(
        self,
        query: str,
        scheme: str = "sumbest",
        top_k: int | None = 10,
        deadline_ms: float | None = None,
        partial: bool = True,
        request_id: str | None = None,
    ) -> dict:
        """One admitted, deadline-governed search; returns the payload.

        Raises :class:`repro.serve.http.HttpError` with the status the
        transport should emit (503 shed / 504 timeout / 4xx client).

        ``request_id`` labels this search in the telemetry layer for
        in-process callers; over HTTP the server has usually already
        begun a request context (from ``X-Request-Id``), in which case
        the argument is ignored in favor of the active context.
        """
        # The transport (HttpServer) begins the request context; when the
        # service is driven directly (tests, benchmarks, embedding) it
        # owns one itself so phase spans and the slow capture still work.
        rt = telemetry.current()
        owned_token = None
        if rt is None and self.telemetry is not None:
            rt = self.telemetry.begin(
                request_id, route="/search", query=query, scheme=scheme
            )
            owned_token = telemetry.activate(rt)
        elif rt is not None:
            # The transport began the context from raw query params; fill
            # in the resolved values (e.g. the default scheme).
            rt.query = rt.query or query
            rt.scheme = rt.scheme or scheme
        status = 200
        try:
            if self.draining or not self.started:
                raise HttpError(503, "service is draining")
            budget_ms = self.config.deadline_ms
            if deadline_ms is not None:
                budget_ms = min(budget_ms, deadline_ms)
            try:
                queued_s = await self.admission.admit(
                    timeout_s=budget_ms / 1000.0
                )
            except ShedRequest as exc:
                raise _shed_error(exc) from None
            except AdmissionTimeout as exc:
                raise HttpError(504, str(exc)) from None
            if rt is not None:
                rt.add_phase_ms("queue_wait", queued_s * 1000.0)
            try:
                remaining_ms = budget_ms - queued_s * 1000.0
                if remaining_ms <= 0:
                    raise HttpError(
                        504, "deadline expired in the admission queue"
                    )
                return await self._execute(
                    query, scheme, top_k, remaining_ms, partial, queued_s, rt
                )
            finally:
                self.admission.exit()
        except HttpError as exc:
            status = exc.status
            raise
        except BaseException:
            status = 500
            raise
        finally:
            if owned_token is not None:
                telemetry.deactivate(owned_token)
                self.telemetry.finish(rt, status)

    async def _execute(
        self,
        query: str,
        scheme: str,
        top_k: int | None,
        remaining_ms: float,
        partial: bool,
        queued_s: float,
        rt=None,
    ) -> dict:
        handle, epoch = self.readers.pin()
        full_path = self.breaker.allow_full_path()
        limits = self.config.limits(remaining_ms, partial=partial)
        loop = asyncio.get_running_loop()
        started = time.monotonic()

        def run_search(engine: SearchEngine) -> SearchOutcome:
            # run_in_executor does not propagate contextvars across the
            # thread hop, so the request context is re-bound explicitly
            # — this is what lets the engine's phase spans and the qlog
            # request-id stamp see the request.
            with telemetry.bound(rt):
                return engine.search(
                    query, scheme=scheme, top_k=top_k, limits=limits
                )

        try:
            if full_path:
                engine = handle.engine
            else:
                engine = handle.serial_engine
                degraded_serial_requests(self.registry).child().inc()
                if rt is not None:
                    rt.note("served_degraded_serial", True)
            outcome = await loop.run_in_executor(
                self._search_executor, lambda: run_search(engine)
            )
        except (IndexCorruptionError, ScoreConsistencyError) as exc:
            self.breaker.record_failure()
            raise HttpError(500, f"integrity failure: {exc}") from exc
        except QueryTimeoutError as exc:
            raise HttpError(504, str(exc)) from exc
        except ResourceExhaustedError as exc:
            raise HttpError(429, str(exc)) from exc
        except GraftError as exc:
            raise HttpError(400, str(exc)) from exc
        finally:
            self.readers.release(handle)
        if full_path:
            self.breaker.record_success()
        return self._payload(
            query, scheme, outcome, handle, epoch,
            served_serial=not full_path,
            wall_s=time.monotonic() - started,
            queued_s=queued_s,
            rt=rt,
        )

    def _payload(
        self,
        query: str,
        scheme: str,
        outcome: SearchOutcome,
        handle: GenerationHandle,
        epoch: int,
        *,
        served_serial: bool,
        wall_s: float,
        queued_s: float,
        rt=None,
    ) -> dict:
        return {
            "request_id": rt.request_id if rt is not None else None,
            "query": query,
            "scheme": scheme,
            "generation": handle.generation,
            "epoch": epoch,
            "degraded": outcome.degraded,
            "limit_hit": outcome.limit_hit,
            "breaker": self.breaker.state,
            "served_degraded_serial": served_serial,
            "shard_count": outcome.shard_count,
            "plan_cached": outcome.plan_cached,
            "wall_ms": wall_s * 1000.0,
            "queued_ms": queued_s * 1000.0,
            "results": [
                {
                    "rank": rank,
                    "doc_id": r.doc_id,
                    "score": r.score,
                    "title": r.title,
                }
                for rank, r in enumerate(outcome.results, start=1)
            ],
        }

    async def explain(self, query: str, scheme: str = "sumbest") -> dict:
        """The optimized plan the current generation would execute."""
        if self.draining or not self.started:
            raise HttpError(503, "service is draining")
        async with self.admission:
            handle, epoch = self.readers.pin()
            try:
                loop = asyncio.get_running_loop()
                text = await loop.run_in_executor(
                    self._search_executor,
                    lambda: handle.engine.explain(query, scheme=scheme),
                )
            except GraftError as exc:
                raise HttpError(400, str(exc)) from exc
            finally:
                self.readers.release(handle)
            return {
                "query": query,
                "scheme": scheme,
                "generation": handle.generation,
                "epoch": epoch,
                "plan": text,
            }

    # -- ingest and swap ---------------------------------------------------

    @property
    def writer_alive(self) -> bool:
        return self._writer is not None and self._writer_fault is None

    def _require_writer(self) -> SearchEngine:
        if self.draining:
            raise HttpError(503, "service is draining")
        if not self.writer_alive:
            raise HttpError(
                503,
                "writer is down "
                f"({type(self._writer_fault).__name__ if self._writer_fault else 'not started'}); "
                "readers keep serving the last durable generation",
            )
        return self._writer

    async def add_document(self, text: str, title: str = "") -> dict:
        """WAL-append one document through the writer; durable on return.

        The document becomes *searchable* at the next checkpoint + swap;
        this split is what lets readers stay immutable.
        """
        writer = self._require_writer()
        loop = asyncio.get_running_loop()
        try:
            doc_id = await loop.run_in_executor(
                self._writer_executor, lambda: writer.add(text, title)
            )
        except BaseException as exc:
            self._writer_fault = exc
            raise HttpError(503, f"writer failed: {exc}") from exc
        self._wal_since_checkpoint += 1
        pending = (
            self.config.checkpoint_every
            and self._wal_since_checkpoint >= self.config.checkpoint_every
        )
        if pending:
            asyncio.ensure_future(self._auto_checkpoint())
        return {
            "doc_id": doc_id,
            "wal_pending": self._wal_since_checkpoint,
            "generation": self.readers.current.generation
            if self.readers.current else None,
        }

    async def _auto_checkpoint(self) -> None:
        try:
            await self.checkpoint_and_swap()
        except HttpError:
            pass  # a concurrent swap is already running, or writer died

    async def checkpoint_and_swap(self) -> dict:
        """Compact the WAL into a new generation and hot-swap readers.

        Zero dropped requests by construction: the new reader is loaded
        and pre-built entirely off the request path, the swap itself is
        one pointer flip under the reader lock, and requests pinned to
        the old handle finish on it.
        """
        writer = self._require_writer()
        if self._swap_lock.locked():
            raise HttpError(409, "a checkpoint/swap is already in progress")
        async with self._swap_lock:
            loop = asyncio.get_running_loop()
            swap_started = time.monotonic()
            try:
                generation = await loop.run_in_executor(
                    self._writer_executor, writer.checkpoint
                )
            except BaseException as exc:
                # The writer 'died' mid-checkpoint (chaos or real fault).
                # Readers are untouched; the store recovers on reopen.
                self._writer_fault = exc
                raise HttpError(
                    503, f"writer crashed during checkpoint: {exc}"
                ) from exc
            self._wal_since_checkpoint = 0
            old = await self.load_and_swap()
            if self.after_swap is not None:
                await self.after_swap(generation)
            elapsed = time.monotonic() - swap_started
            generation_swaps(self.registry).child().inc()
            swap_seconds(self.registry).child().observe(elapsed)
            return {
                "generation": generation,
                "previous": old.generation if old is not None else None,
                "epoch": self.readers.epoch,
                "swap_ms": elapsed * 1000.0,
            }

    async def revive_writer(self) -> dict:
        """Reopen the store after a writer crash (the supervisor path).

        Releases the dead writer's advisory lock (the supervisor owns
        the handle in-process; after a real crash the pid-staleness
        break does the same job), then reopens — which truncates any
        torn WAL tail and garbage-collects the dead checkpoint's
        residue, exactly like a process restart.
        """
        if self.writer_alive:
            return {"revived": False, "reason": "writer is alive"}
        loop = asyncio.get_running_loop()
        dead, self._writer = self._writer, None
        self._writer_fault = None

        def reopen() -> SearchEngine:
            if dead is not None:
                dead.close()
            return SearchEngine.open(self.store_dir, analyzer=self.analyzer)

        try:
            self._writer = await loop.run_in_executor(
                self._writer_executor, reopen
            )
        except BaseException as exc:
            self._writer_fault = exc
            raise HttpError(503, f"writer revival failed: {exc}") from exc
        self._wal_since_checkpoint = 0
        return {
            "revived": True,
            "generation": self._writer.loaded_generation,
        }

    # -- SLO judgment ------------------------------------------------------

    def _observe_slo(self, wall_ms: float, status: int) -> None:
        """Fold one finished query into the SLO engine; arm/disarm the
        admission controller's pressure mode on fast-burn transitions."""
        self.slo.observe(wall_ms, status)
        report = self.slo.maybe_evaluate()
        if not self.config.slo_shed:
            return
        armed = bool(report.get("fast_burn_breaching"))
        if armed != self.admission.pressure:
            self.admission.set_pressure(armed)
            from repro.obs.metrics import slo_shed_armed

            slo_shed_armed(self.registry).child().set(1.0 if armed else 0.0)

    def slo_report(self) -> dict:
        """A fresh full evaluation for ``/debug/slo``."""
        if self.slo is None:
            raise HttpError(
                503, "no SLOs configured; start with --slo SPEC"
            )
        report = self.slo.evaluate()
        report["shed_pressure"] = self.admission.pressure
        report["pressure_sheds"] = self.admission.pressure_sheds
        return report

    def trace_payload(self, request_id: str) -> dict:
        """The exported span tree for one request (``/debug/trace/<id>``)."""
        if self.spans is None:
            raise HttpError(
                503, "span export is disabled; start with --spans"
            )
        payload = self.spans.get(request_id)
        if payload is None:
            raise HttpError(
                404, f"no exported trace for request id {request_id!r}"
            )
        return payload

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        current = self.readers.current
        return {
            "ready": self.started and not self.draining
            and current is not None,
            "draining": self.draining,
            "generation": current.generation if current else None,
            "epoch": self.readers.epoch,
            "swaps": self.readers.swaps,
            "reader_refs": current.refs if current else 0,
            "doc_count": len(current.engine.collection) if current else 0,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "shed": self.admission.shed,
            "admitted": self.admission.admitted,
            "admission_timeouts": self.admission.timed_out,
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "writer_alive": self.writer_alive,
            "wal_pending": self._wal_since_checkpoint,
            "telemetry": (
                self.telemetry.status_summary()
                if self.telemetry is not None else None
            ),
            "slo": (
                {
                    "objectives": len(self.slo.objectives),
                    "breaching": self.slo.breaching(),
                    "shed_pressure": self.admission.pressure,
                }
                if self.slo is not None else None
            ),
            "spans": (
                {
                    "ring": len(self.spans.ring),
                    "capacity": self.spans.ring.capacity,
                    "written": (
                        self.spans.writer.written
                        if self.spans.writer is not None else None
                    ),
                }
                if self.spans is not None else None
            ),
        }


def _shed_error(exc: ShedRequest) -> HttpError:
    error = HttpError(503, str(exc))
    error.retry_after_s = exc.retry_after_s
    return error
