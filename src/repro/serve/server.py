"""The asyncio HTTP surface over :class:`repro.serve.service.QueryService`.

One coroutine per connection, keep-alive, no external dependencies — a
listening socket, an accept loop, and the framing in
:mod:`repro.serve.http`.

Endpoints:

========================  =====================================================
``GET /search``           ``?q=``, ``scheme=``, ``top_k=``, ``deadline_ms=``,
                          ``partial=`` — admitted, deadline-governed search.
``GET /explain``          ``?q=``, ``scheme=`` — the optimized plan text.
``GET /healthz``          Liveness: 200 as long as the process serves.
``GET /readyz``           Readiness: 200 only when a reader generation is
                          loaded and the server is not draining.
``GET /metrics``          Prometheus text (or JSON with ``?format=json``).
``GET /status``           Service introspection (generation, epoch, breaker,
                          admission counters, writer health, processes).
``POST /add``             JSON ``{"text": ..., "title": ...}`` — WAL-append
                          one document through the writer.
``POST /admin/checkpoint``  Checkpoint the WAL and hot-swap readers.
``POST /admin/revive``    Reopen the store after a writer crash.
``GET /debug/requests``   In-flight requests: id, age, current phase.
``GET /debug/slow``       Captured slow-request wide events (``?n=``).
``GET /debug/profile``    Opt-in sampling profiler (``?seconds=N``),
                          collapsed-stack text; 403 unless enabled.
``GET /debug/slo``        Burn rates, budgets, and verdicts per objective;
                          503 unless SLOs are configured (``--slo``).
``GET /debug/trace/<id>`` The unified OTLP-shaped span tree exported for
                          one request; 503 unless ``--spans``, 404 when
                          the id has aged out of the ring.
========================  =====================================================

Every request is assigned a correlation id — the client's
``X-Request-Id`` header when present (sanitized), a generated
ULID-style id otherwise — echoed back as ``X-Request-Id`` on the
response and threaded through the engine via the request-telemetry
context (:mod:`repro.obs.telemetry`).

``/metrics``, ``/status``, ``/debug/requests`` and ``/debug/slow`` are
merges of per-process snapshots (:meth:`HttpServer.snapshot`): of this
process's alone here, of every server process's when
:mod:`repro.serve.supervisor` runs several.

Shutdown is a drain, not a guillotine: on SIGTERM (or :meth:`stop`) the
server first flips ``/readyz`` to 503 so load balancers stop routing
here, stops accepting connections, answers 503 with ``Connection:
close`` to any request already sent on an idle keep-alive connection
and closes the rest, waits up to ``drain_timeout_s`` for inflight
requests, then closes.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import time

from repro.obs import telemetry
from repro.obs.metrics import (
    REGISTRY,
    http_request_seconds,
    http_requests,
    merge_snapshots,
    prometheus_text,
)
from repro.obs.telemetry import (
    merge_status_summaries,
    new_request_id,
    sanitize_request_id,
)
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    response_bytes,
)
from repro.serve.service import QueryService

TRACE_PREFIX = "/debug/trace/"
#: How long a drain leaves idle keep-alive connections open for a
#: request already sent before closing them.
IDLE_DRAIN_S = 0.05

#: ``/status`` fields that add across server processes; every other
#: field is the writer process's own.
_SUMMED_STATUS = (
    "inflight", "queued", "shed", "admitted", "admission_timeouts",
    "breaker_trips", "reader_refs",
)
_BREAKER_ORDER = ("closed", "half-open", "open")


def _json_body(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def listen_sockets(host: str | None, port: int) -> list[socket.socket]:
    """Listening TCP sockets on every address ``host`` resolves to, all
    interfaces for ``''`` or None, as ``asyncio.start_server`` binds
    them.  Port 0 takes one ephemeral port, shared by every address."""
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    sockets: list[socket.socket] = []
    try:
        for family, address in dict.fromkeys(
            (info[0], info[4]) for info in infos
        ):
            sockets.append(socket.create_server(
                (address[0], port, *address[2:]), family=family, backlog=100
            ))
            port = sockets[0].getsockname()[1]
    except OSError:
        for sock in sockets:
            sock.close()
        raise
    return sockets


class HttpServer:
    """Bind, route, drain.  One instance per :class:`QueryService`."""

    def __init__(self, service: QueryService, *, registry=REGISTRY):
        self.service = service
        self.registry = registry
        self._listeners: list[socket.socket] = []
        self._accept_tasks: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        #: Connections with a request in progress; the rest are idle
        #: keep-alive connections, which a drain closes after one short
        #: window for a request already on its way.
        self._busy: set[asyncio.Task] = set()
        self._stopping: asyncio.Future | None = None
        self._draining = asyncio.Event()
        self.host: str | None = None
        self.port: int | None = None
        #: Requests this process answered (relayed ones are the
        #: writer process's).
        self.requests_served = 0
        self._routes = {
            ("GET", "/search"): self._search,
            ("GET", "/explain"): self._explain,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/status"): self._status,
            ("POST", "/add"): self._add,
            ("POST", "/admin/checkpoint"): self._checkpoint,
            ("POST", "/admin/revive"): self._revive,
            ("GET", "/debug/requests"): self._debug_requests,
            ("GET", "/debug/slow"): self._debug_slow,
            ("GET", "/debug/profile"): self._debug_profile,
            ("GET", "/debug/slo"): self._debug_slo,
        }
        self._paths = {path for _, path in self._routes}

    # -- lifecycle ---------------------------------------------------------

    async def start(
        self, sockets: list[socket.socket] | None = None
    ) -> tuple[str, int]:
        """Start the service core and listen; returns (host, port) of
        the first listening socket.

        ``sockets`` are already listening sockets to accept on (the
        supervisor binds them before forking); None binds the configured
        address (:func:`listen_sockets`).
        """
        if not self.service.started:
            await self.service.start()
        if sockets is None:
            config = self.service.config
            sockets = listen_sockets(config.host, config.port)
        self._listeners = sockets
        for sock in sockets:
            sock.setblocking(False)
            self._accept_tasks.append(
                asyncio.ensure_future(self._accept_loop(sock))
            )
        self.host, self.port = sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until a drain is triggered and completes."""
        await self._draining.wait()

    def shutdown(self) -> asyncio.Future:
        """Begin the graceful drain: unready, stop accepting, close idle
        connections, wait for inflight requests, close.  Returns the
        drain's future; :meth:`serve_forever` returns when it is done.

        Idempotent — a second SIGTERM while draining joins the same
        drain rather than aborting it; hard-kill impatience belongs to
        the supervisor.
        """
        if self._stopping is None:
            self._stopping = asyncio.ensure_future(self._drain())
        return self._stopping

    async def stop(self) -> None:
        """:meth:`shutdown`, and wait for it."""
        await asyncio.shield(self.shutdown())

    async def _drain(self) -> None:
        self.service.draining = True  # /readyz goes 503 first
        for task in self._accept_tasks:
            task.cancel()
        for sock in self._listeners:
            sock.close()
        # An idle keep-alive connection may hold a request the loop has
        # not parsed yet: one short window lets it in, to be answered
        # 503 with Connection: close.  The rest have nothing to finish.
        await asyncio.sleep(IDLE_DRAIN_S)
        for task in self._connections - self._busy:
            task.cancel()
        deadline = time.monotonic() + self.service.config.drain_timeout_s
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        await self.service.stop()
        self._draining.set()

    # -- connection handling -----------------------------------------------

    async def _accept_loop(self, listener: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _ = await loop.sock_accept(listener)
            except OSError:
                await asyncio.sleep(0.01)  # e.g. out of descriptors
                continue
            if not self._hand_off(conn):
                self.serve_socket(conn)

    def _hand_off(self, conn: socket.socket) -> bool:
        """True when ``conn`` was given to another server process."""
        return False

    def serve_socket(self, sock: socket.socket) -> None:
        """Serve one accepted connection on its own task."""
        task = asyncio.ensure_future(self._serve_socket(sock))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_socket(self, sock: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            sock.close()
            return
        await self._handle_connection(reader, writer)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        self._error_bytes(exc, route="(parse)", keep=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self._busy.add(task)
                status, body, headers = await self._dispatch_counted(request)
                keep = request.keep_alive and not self.service.draining
                writer.write(
                    response_bytes(
                        status, body, extra_headers=headers, keep_alive=keep
                    )
                )
                await writer.drain()
                self._busy.discard(task)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._busy.discard(task)
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    def _error_bytes(
        self, exc: HttpError, *, route: str, keep: bool
    ) -> bytes:
        headers = {}
        retry = getattr(exc, "retry_after_s", None)
        if retry is not None:
            headers["Retry-After"] = f"{retry:.3f}"
        http_requests(self.registry).labels(
            route=route, status=str(exc.status)
        ).inc()
        return response_bytes(
            exc.status,
            _json_body({"error": str(exc), "status": exc.status}),
            extra_headers=headers,
            keep_alive=keep,
        )

    def _match(self, request: Request):
        """(route template, handler) — the template labels the metrics,
        so every 404 path and every trace id share one label value."""
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return request.path, handler
        if request.method == "GET" and request.path.startswith(TRACE_PREFIX):
            return TRACE_PREFIX + "{id}", self._debug_trace
        return "(unmatched)", None

    async def _dispatch_counted(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        route, handler = self._match(request)
        started = time.monotonic()
        # Begin the request-telemetry context: accept the client's
        # X-Request-Id (sanitized) or mint a ULID-style one, bind it to
        # this task so every layer below — admission, service, engine,
        # qlog — sees the same id, and echo it on the response.
        hub = self.service.telemetry
        rt = None
        token = None
        rid = sanitize_request_id(request.header("x-request-id"))
        if hub is not None:
            rt = hub.begin(
                rid,
                route=request.path,
                query=request.param("q") or "",
                scheme=request.param("scheme") or "",
            )
            rid = rt.request_id
            token = telemetry.activate(rt)
        elif rid is None:
            rid = new_request_id()
        try:
            try:
                if handler is None:
                    raise self._no_route(request)
                status, body, headers = await handler(request)
            except HttpError as exc:
                status = exc.status
                headers = {}
                retry = getattr(exc, "retry_after_s", None)
                if retry is not None:
                    headers["Retry-After"] = f"{retry:.3f}"
                body = _json_body({"error": str(exc), "status": status})
            except Exception as exc:  # noqa: BLE001 — the connection must live
                status = 500
                headers = {}
                body = _json_body(
                    {"error": f"{type(exc).__name__}: {exc}", "status": 500}
                )
        finally:
            if token is not None:
                telemetry.deactivate(token)
        if hub is not None and rt is not None:
            hub.finish(rt, status)
        headers = dict(headers)
        headers.setdefault("X-Request-Id", rid)
        self.requests_served += 1
        http_requests(self.registry).labels(
            route=route, status=str(status)
        ).inc()
        http_request_seconds(self.registry).labels(route=route).observe(
            time.monotonic() - started
        )
        return status, body, headers

    def _no_route(self, request: Request) -> HttpError:
        path = request.path
        if path in self._paths or path.startswith(TRACE_PREFIX):
            return HttpError(
                405, f"{request.method} is not allowed on {request.path}"
            )
        return HttpError(404, f"no route for {request.path}")

    # -- per-process snapshots ---------------------------------------------

    def snapshot(self, part: str, n: int = 32):
        """This process's share of a merged route: ``status``,
        ``metrics``, ``requests`` or ``slow`` (the ``n`` slowest)."""
        hub = self.service.telemetry
        if part == "metrics":
            return self.registry.snapshot()
        if part == "status":
            return {
                "status": self.service.status(),
                "process": self._process_row(),
                "telemetry": hub.export() if hub is not None else None,
            }
        if part == "requests":
            if hub is None:
                return []
            return [dict(view, pid=os.getpid()) for view in hub.inflight()]
        if part == "slow":
            return hub.slow.snapshot(n) if hub is not None else []
        raise HttpError(404, f"no snapshot part {part!r}")

    async def _snapshots(self, part: str, n: int = 32) -> list:
        """:meth:`snapshot` of every server process, this one's first."""
        return [self.snapshot(part, n)]

    def _process_row(self) -> dict:
        """One line of ``/status.processes`` (and of ``repro top``)."""
        current = self.service.readers.current
        return {
            "pid": os.getpid(),
            "role": self.service.role,
            "generation": current.generation if current else None,
            "epoch": self.service.readers.epoch,
            "inflight": self.service.admission.inflight,
            "requests": self.requests_served,
            "loads": self.service.loads,
        }

    # -- routes ------------------------------------------------------------

    async def _search(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        query = request.param("q")
        if not query:
            raise HttpError(400, "missing required query parameter 'q'")
        deadline_ms = request.float_param("deadline_ms", None)
        if deadline_ms is not None and not (
            math.isfinite(deadline_ms) and deadline_ms > 0
        ):
            raise HttpError(
                400, f"query parameter 'deadline_ms' must be a positive "
                     f"finite number, got {request.param('deadline_ms')!r}"
            )
        payload = await self.service.search(
            query,
            scheme=request.param("scheme", "sumbest"),
            top_k=request.int_param("top_k", 10),
            deadline_ms=deadline_ms,
            partial=request.bool_param("partial", True),
        )
        with telemetry.span("serialize"):
            body = _json_body(payload)
        return 200, body, {}

    async def _explain(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        query = request.param("q")
        if not query:
            raise HttpError(400, "missing required query parameter 'q'")
        payload = await self.service.explain(
            query, scheme=request.param("scheme", "sumbest")
        )
        return 200, _json_body(payload), {}

    async def _healthz(self, request: Request):
        return 200, _json_body({"alive": True}), {}

    async def _readyz(self, request: Request):
        """This process's own status, whichever process serves it."""
        status = dict(self.service.status(), processes=[self._process_row()])
        return (200 if status["ready"] else 503), _json_body(status), {}

    async def _status(self, request: Request):
        parts = await self._snapshots("status")
        live = [part for part in parts if "status" in part]
        status = dict(live[0]["status"])
        for key in _SUMMED_STATUS:
            status[key] = sum(part["status"][key] for part in live)
        status["breaker"] = max(
            (part["status"]["breaker"] for part in live),
            key=_BREAKER_ORDER.index,
        )
        if status["telemetry"] is not None:
            status["telemetry"] = merge_status_summaries(
                [part["telemetry"] for part in live]
            )
        status["processes"] = [part["process"] for part in parts]
        return 200, _json_body(status), {}

    async def _metrics(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        merged = merge_snapshots(await self._snapshots("metrics"))
        if request.param("format") == "json":
            return (
                200,
                (json.dumps(merged, indent=2, sort_keys=True) + "\n").encode(
                    "utf-8"
                ),
                {},
            )
        # The full Prometheus exposition content type: scrapers negotiate
        # on version *and* charset.
        return (
            200,
            prometheus_text(merged).encode("utf-8"),
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
        )

    async def _checkpoint(self, request: Request):
        return 200, _json_body(await self.service.checkpoint_and_swap()), {}

    async def _revive(self, request: Request):
        return 200, _json_body(await self.service.revive_writer()), {}

    async def _debug_slo(self, request: Request):
        return 200, _json_body(self.service.slo_report()), {}

    def _require_hub(self):
        hub = self.service.telemetry
        if hub is None:
            raise HttpError(
                503, "request telemetry is disabled (ServiceConfig.telemetry)"
            )
        return hub

    async def _debug_requests(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        self._require_hub()
        inflight = [
            view for part in await self._snapshots("requests") for view in part
        ]
        inflight.sort(key=lambda v: v["age_ms"], reverse=True)
        return 200, _json_body({"inflight": inflight}), {}

    async def _debug_trace(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        rid = sanitize_request_id(request.path[len(TRACE_PREFIX):])
        if rid is None:
            raise HttpError(400, "malformed request id in path")
        return 200, _json_body(self.service.trace_payload(rid)), {}

    async def _debug_slow(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        hub = self._require_hub()
        n = request.int_param("n", 32)
        if n < 1:
            raise HttpError(400, "query parameter 'n' must be >= 1")
        events = [
            event for part in await self._snapshots("slow", n)
            for event in part
        ]
        events.sort(key=lambda e: float(e.get("wall_ms", 0.0)), reverse=True)
        return (
            200,
            _json_body({
                "window_s": hub.slow.window_s,
                "capacity": hub.slow.capacity,
                "events": events[:n],
            }),
            {},
        )

    async def _debug_profile(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        config = self.service.config
        if not config.profile_endpoint:
            raise HttpError(
                403,
                "profiling endpoint is disabled; start the service with "
                "profile_endpoint=True (repro serve --enable-profile)",
            )
        seconds = request.float_param("seconds", 2.0)
        if seconds is None or seconds <= 0:
            raise HttpError(400, "query parameter 'seconds' must be > 0")
        seconds = min(seconds, config.profile_max_seconds)
        from repro.obs.profile import sample_for

        # The sampler blocks its thread for the whole window; run it on
        # the default executor so the event loop keeps serving traffic
        # (which is the point: profile the service under load).
        loop = asyncio.get_running_loop()
        prof = await loop.run_in_executor(None, lambda: sample_for(seconds))
        text = prof.collapsed()
        body = (
            f"# sampling profile: {seconds:.3f}s at "
            f"{prof.interval_s * 1000.0:.1f}ms interval, "
            f"{prof.samples} samples (collapsed stacks)\n"
            + text + ("\n" if text else "")
        ).encode("utf-8")
        return 200, body, {"Content-Type": "text/plain; charset=utf-8"}

    async def _add(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str]]:
        try:
            doc = json.loads(request.body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("text"), str):
            raise HttpError(
                400, "request body must be a JSON object with a 'text' string"
            )
        result = await self.service.add_document(
            doc["text"], title=str(doc.get("title", ""))
        )
        return 202, _json_body(result), {}
