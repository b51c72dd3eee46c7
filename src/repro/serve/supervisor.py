"""One server process per core: a writer parent and forked readers.

``repro serve`` runs N = :func:`repro.exec.procpool.schedulable_cores`
server processes, because one CPython interpreter is the service's
capacity: each ``/search`` holds the GIL for about a millisecond of
framing, admission, engine and JSON work.  Queries share nothing but
the read-only index generation (every query compiles its own plan), so
processes change no score.

**The parent** is the single-process server plus three duties.  It
opens the writer and loads the first reader generation, then forks the
N-1 children before any thread or event loop exists, so each child
inherits that reader instead of loading its own.  It alone accepts on
the listening sockets and hands the connections out in turn, itself
included, passing a child's over a per-child Unix socketpair, the
*control channel*: any two connections opened one after the other land
on two processes.  With every process accepting on the shared socket,
both connections of a pair often landed on one process, and the
measured capacity gain fell from 1.7x to 1.2x (docs/SERVICE.md
"Processes").  And it answers every route that needs one place: writes,
admin, metrics and the debug surface.

**Each child** serves ``/search``, ``/explain``, ``/healthz`` and
``/readyz`` from its own reader set, admission controller and circuit
breaker, and relays every other route to the parent over HTTP on the
parent's private Unix socket.  Its own private socket serves
``/internal/snapshot`` — the only place ``/internal/`` routes exist —
from which the parent merges ``/metrics``, ``/status``,
``/debug/requests`` and ``/debug/slow`` when they are hit
(:meth:`repro.serve.server.HttpServer.snapshot`).

**Swap and pins.**  After its own checkpoint and swap, the parent pins
the new generation once per child, tells each child to swap, and waits
for the acknowledgements.  A child releases through the parent: when
its old handle drains it reports the generation, and the parent drops
that child's pin.  So a generation is collected only after every
process has swapped away from it and finished its requests on it.

**Lifecycle.**  SIGTERM on the parent drains it and SIGTERMs the
children, which drain too; the parent reaps them and exits 0 only if
they all did.  A child whose control channel reaches EOF — the parent
died — drains and exits as well.

Features that need every request in one place keep the server at one
process (:func:`server_processes`), as does ``--executor process``,
whose shard workers already occupy the cores.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback

from repro.errors import GraftError
from repro.obs.metrics import REGISTRY
from repro.serve.http import (
    HttpError,
    read_request,
    read_response,
    request_bytes,
    response_bytes,
)
from repro.serve.server import HttpServer, _json_body, listen_sockets
from repro.serve.service import QueryService

#: Routes a child answers itself; it relays every other one.
READER_ROUTES = frozenset({"/search", "/explain", "/healthz", "/readyz"})
#: How long the parent waits for one child's swap acknowledgement or
#: snapshot before going on without it.
PEER_TIMEOUT_S = 10.0


def server_processes(config) -> int:
    """How many server processes ``repro serve`` runs for ``config``.

    One per schedulable core — except one in total when a feature must
    see every request in one process (the query log, span export, the
    SLO engine, the sampling profiler) or when shards run on worker
    processes, which already occupy the cores.
    """
    from repro.api import _resolve_executor
    from repro.exec.procpool import schedulable_cores

    if (
        config.qlog_path or config.spans or config.slos
        or config.profile_endpoint
        or _resolve_executor(config.executor) == "process"
    ):
        return 1
    return schedulable_cores()


def run_server(service: QueryService, *, ready_line=print) -> int:
    """Serve ``service`` (not yet started) until SIGTERM on
    :func:`server_processes` processes; the exit code."""
    count = server_processes(service.config)
    if count > 1:
        _require_fork_safe()
    service.open()
    server = Supervisor(service, count)
    try:
        server.fork()
        return asyncio.run(server.run(ready_line))
    finally:
        server.close()


def _require_fork_safe() -> None:
    """Fork only a single-threaded process with no event loop: a child
    inherits no lock another thread held and no loop it cannot run."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        loop_running = False
    else:
        loop_running = True
    if loop_running or threading.active_count() > 1:
        raise GraftError(
            "repro serve forks its reader processes before any thread or "
            "event loop exists; run it from a fresh single-threaded process"
        )


class GenerationPins:
    """The store pins the parent holds on one child's behalf: one per
    generation the child may still be reading."""

    def __init__(self, store_dir):
        from repro.index.store import IndexStore

        self._store = IndexStore(store_dir)
        self.held: dict[str, int] = {}

    def pin(self, generation: str | None) -> None:
        if generation is not None:
            self._store.pin_generation(generation)
            self.held[generation] = self.held.get(generation, 0) + 1

    def release(self, generation: str | None) -> None:
        if self.held.get(generation, 0) > 0:
            self.held[generation] -= 1
            if not self.held[generation]:
                del self.held[generation]
            self._store.release_generation(generation)

    def release_all(self) -> None:
        for generation, count in list(self.held.items()):
            for _ in range(count):
                self.release(generation)


class _Channel:
    """One end of a control channel: JSON messages, one per datagram of
    a ``SOCK_SEQPACKET`` socketpair.

    :meth:`send` never drops a message while the peer lives: what the
    socket buffer cannot take now waits, in order, until the peer reads.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.queued: collections.deque[bytes] = collections.deque()
        self._waiting = False

    def listen(self, on_message, on_eof) -> None:
        """On the running loop, call ``on_message(message, fds)`` for
        each message and ``on_eof()`` once the peer process is gone."""
        self.sock.setblocking(False)
        asyncio.get_running_loop().add_reader(
            self.sock.fileno(), self._read, on_message, on_eof
        )

    def _read(self, on_message, on_eof) -> None:
        try:
            data, fds, _, _ = socket.recv_fds(self.sock, 4096, 1)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data, fds = b"", []
        if data:
            on_message(json.loads(data), fds)
            return
        asyncio.get_running_loop().remove_reader(self.sock.fileno())
        on_eof()

    def send(self, message: dict) -> None:
        """Send ``message`` after every message sent before it."""
        self.queued.append(json.dumps(message).encode())
        if len(self.queued) == 1:
            self._flush()

    def _flush(self) -> None:
        while self.queued:
            try:
                self.sock.send(self.queued[0])
            except (BlockingIOError, InterruptedError):
                if not self._waiting:
                    self._waiting = True
                    asyncio.get_running_loop().add_writer(
                        self.sock.fileno(), self._flush
                    )
                return
            except OSError:
                self.queued.clear()  # the peer is gone: nothing to tell
            else:
                self.queued.popleft()
        if self._waiting:
            self._waiting = False
            asyncio.get_running_loop().remove_writer(self.sock.fileno())

    def pass_fd(self, message: dict, fd: int) -> bool:
        """Send ``message`` with a copy of ``fd`` now; False, with
        nothing sent, when the channel cannot take it at once."""
        if self.queued:
            return False
        try:
            socket.send_fds(self.sock, [json.dumps(message).encode()], [fd])
        except OSError:
            return False
        return True


class _Child:
    """The parent's record of one forked server process."""

    def __init__(self, channel: _Channel, snapshot_path: str,
                 pins: GenerationPins):
        self.channel = channel
        self.snapshot_path = snapshot_path
        self.pins = pins
        self.pid: int | None = None
        self.alive = True
        self.exit_code: int | None = None
        self.swaps: dict[str, asyncio.Future] = {}

    def reap(self, block: bool = False) -> None:
        if self.exit_code is not None:
            return
        try:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            self.exit_code = -1
            return
        if pid:
            self.exit_code = os.waitstatus_to_exitcode(status)

    def row(self) -> dict:
        return {"pid": self.pid, "role": "reader", "alive": False,
                "exit_code": self.exit_code}


class Supervisor(HttpServer):
    """The parent's server: it forks the children, hands connections to
    them, swaps them, and merges their snapshots."""

    def __init__(self, service: QueryService, processes: int):
        super().__init__(service)
        self.processes = processes
        config = service.config
        self.listeners = listen_sockets(config.host, config.port)
        self.children: list[_Child] = []
        #: Whose turn the next connection is: 0 is this process, i the
        #: i-th child.
        self._turn = 0
        self.private_dir = None
        self.relay_listener = None
        if processes > 1:
            self.private_dir = tempfile.mkdtemp(prefix="graft-serve-")
            self.relay_listener = _unix_listener(
                os.path.join(self.private_dir, "parent.sock")
            )

    def fork(self) -> None:
        """Fork the N-1 children; each inherits the loaded reader."""
        if self.processes < 2:
            return
        _require_fork_safe()
        sys.stdout.flush()
        sys.stderr.flush()
        generation = self.service.readers.current.generation
        for index in range(1, self.processes):
            parent_end, child_end = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_SEQPACKET
            )
            path = os.path.join(self.private_dir, f"child-{index}.sock")
            snapshot_listener = _unix_listener(path)
            child = _Child(_Channel(parent_end), path,
                           GenerationPins(self.service.store_dir))
            child.pins.pin(generation)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # Keep only this child's own channel and socket: a
                    # sibling holding the parent's end of another
                    # child's channel would hide the parent's death.
                    for sock in (*self.listeners, self.relay_listener,
                                 parent_end,
                                 *(c.channel.sock for c in self.children)):
                        sock.close()
                    code = _ReaderServer(
                        self.service, child_end, snapshot_listener,
                        self.private_dir,
                    ).run()
                except BaseException:
                    # Report and exit: a child never unwinds into the
                    # parent's code.
                    traceback.print_exc()
                finally:
                    os._exit(code)
            child.pid = pid
            child_end.close()
            snapshot_listener.close()
            self.children.append(child)

    async def run(self, ready_line) -> int:
        loop = asyncio.get_running_loop()
        for child in self.children:
            child.channel.listen(
                functools.partial(self._on_message, child),
                functools.partial(self._lost, child),
            )
        host, port = await self.start(self.listeners)
        relay = None
        if self.relay_listener is not None:
            relay = await asyncio.start_unix_server(
                self._handle_connection, sock=self.relay_listener
            )
        self.service.after_swap = self.swap_children
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self._terminate)
        status = self.service.status()
        ready_line(
            f"serving {self.service.store_dir} "
            f"generation={status['generation']} docs={status['doc_count']} "
            f"processes={self.processes} on http://{host}:{port}"
        )
        await self.serve_forever()
        if relay is not None:
            relay.close()
        code = await self._reap(self.service.config.drain_timeout_s + 5.0)
        ready_line("drained; bye")
        return code

    def close(self) -> None:
        for sock in self.listeners:
            sock.close()
        if self.relay_listener is not None:
            self.relay_listener.close()
        for child in self.children:
            child.channel.sock.close()
        if self.private_dir is not None:
            shutil.rmtree(self.private_dir, ignore_errors=True)

    def _terminate(self) -> None:
        for child in self.children:
            if child.alive:
                try:
                    os.kill(child.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        self.shutdown()

    async def _reap(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while True:
            for child in self.children:
                child.reap()
            waiting = [c for c in self.children if c.exit_code is None]
            if not waiting:
                break
            if time.monotonic() > deadline:
                for child in waiting:
                    try:
                        os.kill(child.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    child.reap(block=True)
                break
            await asyncio.sleep(0.01)
        return 0 if all(c.exit_code == 0 for c in self.children) else 1

    # -- control channel ---------------------------------------------------

    def _hand_off(self, conn: socket.socket) -> bool:
        """Give ``conn`` to the process whose turn it is; this process
        keeps its own turns and any connection a child cannot take."""
        self._turn = (self._turn + 1) % self.processes
        if not self._turn:
            return False
        child = self.children[self._turn - 1]
        if not (child.alive and child.channel.pass_fd({"op": "conn"},
                                                      conn.fileno())):
            return False
        conn.close()
        return True

    def _on_message(self, child: _Child, message: dict, fds) -> None:
        op = message["op"]
        if op == "released":
            child.pins.release(message["generation"])
        elif op == "swapped":
            requested = message["requested"]
            loaded = message.get("generation")
            if loaded != requested:
                # The child is not on what the parent pinned for it.
                child.pins.pin(loaded)
                child.pins.release(requested)
            future = child.swaps.pop(requested, None)
            if future is not None and not future.done():
                future.set_result(loaded)

    def _lost(self, child: _Child) -> None:
        """The child closed its channel: it exited or crashed."""
        child.alive = False
        child.pins.release_all()
        for future in child.swaps.values():
            if not future.done():
                future.set_result(None)
        child.swaps.clear()
        child.reap()

    async def swap_children(self, generation: str) -> None:
        """Swap every child onto ``generation`` (run under the service's
        swap lock, after the parent's own swap) and wait for the acks."""
        loop = asyncio.get_running_loop()
        waits = []
        for child in self.children:
            if not child.alive:
                continue
            child.pins.pin(generation)
            future = child.swaps[generation] = loop.create_future()
            child.channel.send({"op": "swap", "generation": generation})
            waits.append(future)
        if waits:
            await asyncio.wait(waits, timeout=PEER_TIMEOUT_S)

    # -- merged routes -----------------------------------------------------

    async def _snapshots(self, part: str, n: int = 32) -> list:
        """This process's snapshot, then every live child's; under
        ``status`` also a row for each child that is gone or did not
        answer."""
        live = [c for c in self.children if c.alive]
        results = await asyncio.gather(
            *(self._fetch(c, part, n) for c in live), return_exceptions=True
        )
        out = [self.snapshot(part, n)]
        for child, result in zip(live, results):
            if isinstance(result, BaseException):
                if part == "status":
                    out.append({"process": dict(
                        child.row(), alive=True,
                        error=f"{type(result).__name__}: {result}",
                    )})
                continue
            if part == "status":
                result["process"].update(
                    alive=True, pinned=sorted(child.pins.held)
                )
            out.append(result)
        if part == "status":
            out += [{"process": c.row()} for c in self.children if not c.alive]
        return out

    async def _fetch(self, child: _Child, part: str, n: int):
        reader, writer = await asyncio.wait_for(
            asyncio.open_unix_connection(child.snapshot_path), PEER_TIMEOUT_S
        )
        try:
            writer.write(request_bytes(
                "GET", f"/internal/snapshot?part={part}&n={n}",
                keep_alive=False,
            ))
            status, _, body = await asyncio.wait_for(
                read_response(reader), PEER_TIMEOUT_S
            )
        finally:
            writer.close()
        if status != 200:
            raise ConnectionError(f"snapshot answered {status}")
        return json.loads(body)


class _ReaderServer(HttpServer):
    """One forked child, from fork to exit: reads locally, relays every
    other route to the parent, answers the parent's snapshot requests."""

    def __init__(self, service: QueryService, ctl: socket.socket,
                 snapshot_listener: socket.socket, private_dir: str):
        super().__init__(service)
        self.channel = _Channel(ctl)
        self.snapshot_listener = snapshot_listener
        self.private_dir = private_dir
        self._relay_path = os.path.join(private_dir, "parent.sock")
        self._swaps: set[asyncio.Task] = set()

    def run(self) -> int:
        # Counts the parent made before the fork are the parent's: the
        # merged /metrics would add them twice.
        REGISTRY.reset()
        self.service.registry.reset()
        self.service.reader_only(self._pin)
        asyncio.run(self._main())
        return 0

    def _pin(self, generation: str):
        """The parent pinned ``generation`` before this process loaded
        it; releasing tells the parent to drop that pin."""
        return lambda: self.channel.send(
            {"op": "released", "generation": generation}
        )

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        internal = await asyncio.start_unix_server(
            self._serve_internal, sock=self.snapshot_listener
        )
        self.channel.listen(self._on_message, self._parent_gone)
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.shutdown)
        await self.serve_forever()
        internal.close()

    def _on_message(self, message: dict, fds) -> None:
        if message["op"] == "conn":
            for fd in fds:
                self.serve_socket(socket.socket(fileno=fd))
        elif message["op"] == "swap":
            task = asyncio.ensure_future(self._swap(message["generation"]))
            self._swaps.add(task)
            task.add_done_callback(self._swaps.discard)

    def _parent_gone(self) -> None:
        """EOF on the control channel: the parent died.  Drain, and take
        the private sockets with us, since nobody else will."""
        shutil.rmtree(self.private_dir, ignore_errors=True)
        self.shutdown()

    async def _swap(self, requested: str) -> None:
        try:
            await self.service.load_and_swap()
            reply = {"generation": self.service.readers.current.generation}
        except Exception as exc:  # noqa: BLE001 — stay on the old reader
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        self.channel.send({"op": "swapped", "requested": requested, **reply})

    async def _serve_internal(self, reader, writer) -> None:
        """The private socket: ``GET /internal/snapshot?part=&n=``."""
        try:
            request = await read_request(reader)
            if request is not None and (request.method, request.path) == (
                "GET", "/internal/snapshot"
            ):
                status, body = 200, _json_body(self.snapshot(
                    request.param("part", ""), request.int_param("n", 32)
                ))
            else:
                status, body = 404, b""
            writer.write(response_bytes(status, body, keep_alive=False))
            await writer.drain()
        except (HttpError, ConnectionError):
            pass
        finally:
            writer.close()

    async def _dispatch_counted(self, request):
        if request.path in READER_ROUTES:
            return await super()._dispatch_counted(request)
        return await self._relay(request)

    async def _relay(self, request):
        """Forward ``request`` to the parent and return its answer; the
        parent counts it, so this process does not."""
        headers = {
            name: value for name, value in request.headers.items()
            if name not in ("connection", "content-length")
        }
        try:
            reader, writer = await asyncio.open_unix_connection(
                self._relay_path
            )
            try:
                writer.write(request_bytes(
                    request.method, request.target, headers=headers,
                    body=request.body, keep_alive=False,
                ))
                status, answer, body = await read_response(reader)
            finally:
                writer.close()
        except (OSError, asyncio.IncompleteReadError, HttpError) as exc:
            return 503, _json_body({
                "error": f"the writer process is unavailable: {exc}",
                "status": 503,
            }), {}
        for name in ("connection", "content-length"):
            answer.pop(name, None)
        return status, body, answer


def _unix_listener(path: str) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    sock.listen(64)
    return sock
