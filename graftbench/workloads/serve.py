"""``serve_small``: ``/search`` on a ``python -m repro serve`` subprocess.

A 150-document store served over loopback HTTP/1.1 keep-alive, serial
executor, 48 query texts round-robin, ``top_k=10``.  Engine time is a
fraction of the round trip, so framing, admission, the executor hop and
JSON serialization do most of the work.

Phase A is an **open loop** (independent users): a fixed schedule at
``RATE`` requests per second over 2 connections, each request timed from
when it was *due*, so a stall charges the requests queued behind it.
Phase B is a **closed loop** (2 connections, each waiting for its reply):
capacity as a continuous number.  Load comes from this one process, with
2 threads = ``nproc`` of the reference box.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import shutil
import threading
import time
from urllib.parse import quote

from repro import SearchEngine

from graftbench import check, golden, inputs, queries, stats, system
from graftbench.harness import (
    TOP_K,
    Prepared,
    RunConfig,
    RunResult,
    SETUP_REPEATS,
    maybe_corrupt,
    scratch_dir,
    tail_notes,
    write_trace,
)
from graftbench.spans import SpanRecorder

DOCS = 150
GENERATED = 40
SCHEME = "sumbest"
CONNECTIONS = 2
#: Open-loop arrival rate: about 40 % of the closed-loop capacity of the
#: reference box, so phase A measures latency, not a queue.
RATE = 250.0
#: p95, not p99: on this 150-document corpus p99 moved by 13 % between
#: seeds on identical code, p95 holds its bound.
TAIL = 0.95
#: A connection whose backlog exceeds this many seconds of its arrivals
#: marks phase A saturated: its requests then count as missed.
SATURATED_BACKLOG_S = 0.1
TIMEOUT_S = 10.0


def prepare(cfg: RunConfig) -> Prepared:
    collection = inputs.corpus(cfg.scaled(DOCS, 60), cfg.seed)
    generated = queries.generate(
        collection, cfg.scaled(GENERATED, len(queries.TEMPLATES)), cfg.seed
    )
    texts = list(queries.PAPER) + generated
    keys = [(text, SCHEME) for text in texts]
    return Prepared.of(collection, texts, keys)


def _path(text: str) -> str:
    return f"/search?q={quote(text)}&scheme={SCHEME}&top_k={TOP_K}"


class _Connection:
    """One keep-alive connection; ``get`` returns (status, body bytes)."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            # Timed out, refused or torn: a failed request; start clean.
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=TIMEOUT_S
            )
            return 0, b""

    def close(self) -> None:
        self.conn.close()


class _Tally:
    """Responses of one phase, checked against the reference."""

    def __init__(self):
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.attempted = self.wrong = self.shed = self.timeouts = self.errors = 0
        self.backlog_max = 0
        self.lock = threading.Lock()

    def merge(self, other: "_Tally") -> None:
        with self.lock:
            self.latencies += other.latencies
            self.lateness += other.lateness
            self.attempted += other.attempted
            self.wrong += other.wrong
            self.shed += other.shed
            self.timeouts += other.timeouts
            self.errors += other.errors
            self.backlog_max = max(self.backlog_max, other.backlog_max)

    def record(self, key, reference, status, body, seconds) -> None:
        self.attempted += 1
        if status == 200:
            self.latencies.append(seconds)
            if not check.same_answer(
                check.answer_of_payload(json.loads(body)), reference[key]
            ):
                self.wrong += 1
        elif status == 503:
            self.shed += 1
        elif status == 504:
            self.timeouts += 1
        else:
            self.errors += 1

    @property
    def failed(self) -> int:
        return self.wrong + self.shed + self.timeouts + self.errors


def _in_threads(worker, port: int) -> _Tally:
    """Run ``worker(connection_index, connection, tally)`` on every
    connection at once; the merged tally."""
    total = _Tally()
    failures: list[BaseException] = []

    def body(index: int) -> None:
        conn = _Connection(port)
        tally = _Tally()
        try:
            worker(index, conn, tally)
        except BaseException as exc:  # re-raised on the caller's thread
            failures.append(exc)
        finally:
            conn.close()
            total.merge(tally)

    threads = [
        # Daemons: a run that is terminated mid-phase must not wait for them.
        threading.Thread(target=body, args=(i,), daemon=True)
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return total


def open_loop(port, keys, reference, seconds: float) -> tuple[_Tally, float]:
    """Phase A.  Request ``i`` is due at ``start + i / RATE`` and belongs
    to connection ``i mod CONNECTIONS``; latency runs from the due time."""
    count = max(CONNECTIONS, int(RATE * seconds))
    start = time.perf_counter() + 0.05

    def worker(index, conn, tally):
        mine = range(index, count, CONNECTIONS)
        for sent_so_far, i in enumerate(mine):
            due = start + i / RATE
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            key = keys[i % len(keys)]
            status, body = conn.get(_path(key[0]))
            done = time.perf_counter()
            tally.lateness.append(now - due)
            # Requests of this connection already due but not yet sent.
            due_by_now = min(len(mine), int((now - start) * RATE / CONNECTIONS) + 1)
            tally.backlog_max = max(tally.backlog_max, due_by_now - (sent_so_far + 1))
            tally.record(key, reference, status, body, done - due)

    tally = _in_threads(worker, port)
    return tally, count / RATE


def closed_loop(port, keys, reference, seconds: float) -> tuple[_Tally, float]:
    """Phase B.  Each connection sends its next request when the previous
    reply has arrived, until ``seconds`` have passed."""
    started = time.perf_counter()
    deadline = started + seconds

    def worker(index, conn, tally):
        i = index
        while time.perf_counter() < deadline:
            key = keys[i % len(keys)]
            t0 = time.perf_counter()
            status, body = conn.get(_path(key[0]))
            tally.record(key, reference, status, body, time.perf_counter() - t0)
            i += CONNECTIONS

    tally = _in_threads(worker, port)
    return tally, time.perf_counter() - started


class _Served:
    """One set-up: a saved store and a server subprocess on it."""

    def __init__(self, cfg: RunConfig, docs: int, *server_args: str):
        self.dir = scratch_dir() / "serve_small"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.server = None
        try:
            SearchEngine(inputs.corpus(docs, cfg.seed)).save(self.dir / "store")
            self.server = system.ServeProcess(self.dir / "store", *server_args)
            self.server.start()
        except BaseException:
            self.close()
            raise

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.dir.parent, ignore_errors=True)


def run(cfg: RunConfig) -> RunResult:
    prepared = prepare(cfg)
    if cfg.pinned:
        golden.verify("serve_small", prepared)
    keys, reference = prepared.keys, prepared.reference
    docs = len(prepared.collection)
    maybe_corrupt(cfg, reference)
    result = RunResult(notes={
        "docs": docs, "texts": len(keys), "connections": CONNECTIONS,
        "phase_a": f"open loop, {RATE:g} req/s, timed from due time",
        "phase_b": f"closed loop, {CONNECTIONS} connections",
    })
    if cfg.trace:
        _trace(cfg, docs, prepared, result)
        return result

    # Every set-up is measured, not only the last: a server instance keeps
    # for its lifetime whatever core and memory placement it got at start,
    # which moved the median by 10 % from one instance to the next.  Each
    # instance serves a third of phase A and a third of phase B; a metric
    # is the median over instances of the instance's own value.
    slice_s = cfg.seconds / 2 / SETUP_REPEATS
    setups, rss, p50s, tails, rates = [], [], [], [], []
    a_all, b_all = _Tally(), _Tally()
    saturated = False
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        served = _Served(cfg, docs)
        try:
            # One pass fills the server's plan cache, as a service that
            # has been up for a minute has.
            _one_connection(served.port, keys, reference, None, 1)
            setups.append(time.perf_counter() - started)
            a, _ = open_loop(served.port, keys, reference, slice_s)
            b, b_wall = closed_loop(served.port, keys, reference, slice_s)
            rss.append(system.peak_rss_mb([served.server.pid]))
        finally:
            served.close()
        p50s.append(stats.percentile(a.latencies, 0.50) * 1000.0)
        tails.append(stats.percentile(a.latencies, TAIL) * 1000.0)
        rates.append((len(b.latencies) - b.wrong) / b_wall)
        result.attempted += a.attempted + b.attempted
        result.failed += b.failed
        if a.backlog_max > SATURATED_BACKLOG_S * RATE / CONNECTIONS:
            saturated = True
            result.failed += a.attempted
        else:
            result.failed += a.failed
        a_all.merge(a)
        b_all.merge(b)
    result.metrics = {
        "setup_s": stats.median(setups),
        "op_p50_ms": stats.median(p50s),
        "op_tail_ms": stats.median(tails),
        "ops_per_s": stats.median(rates),
        "peak_rss_mb": max(rss),
    }
    result.notes.update({
        **tail_notes(len(a_all.latencies), TAIL),
        "samples_b": len(b_all.latencies), "instances": SETUP_REPEATS,
        "saturated": saturated, "backlog_max": a_all.backlog_max,
        "late_p99_ms": stats.percentile(a_all.lateness, 0.99) * 1000.0,
        "shed": a_all.shed + b_all.shed,
        "timeouts": a_all.timeouts + b_all.timeouts,
    })
    return result


def _one_connection(port, keys, reference, rec: SpanRecorder | None, passes: int):
    """Search round trips on one connection.  With a recorder each is a
    root span whose children are the queue wait and the engine wall the
    server reported in the payload; the root's self time is what the
    service adds around the engine."""
    conn = _Connection(port)
    tally = _Tally()
    sizes = []
    try:
        for n in range(passes * len(keys)):
            key = keys[n % len(keys)]
            t0 = time.perf_counter()
            status, body = conn.get(_path(key[0]))
            t1 = time.perf_counter()
            tally.record(key, reference, status, body, t1 - t0)
            if rec is not None and status == 200:
                payload = json.loads(body)
                root = rec.add("serve.request", t0, t1, None, request=n)
                queued = payload["queued_ms"] / 1000.0
                wall = payload["wall_ms"] / 1000.0
                rec.add("serve.queued", t0, t0 + queued, root, request=n)
                rec.add("serve.engine", t0 + queued, t0 + queued + wall, root,
                        request=n)
                sizes.append(len(body))
    finally:
        conn.close()
    return tally, sizes


def _trace(cfg: RunConfig, docs: int, prepared: Prepared, result: RunResult) -> None:
    keys, reference = prepared.keys, prepared.reference
    rec = SpanRecorder()
    passes = max(1, int(cfg.seconds * 60 / len(keys)))  # ~1/8 of the time each
    served = _Served(cfg, docs)
    try:
        port = served.port
        _one_connection(port, keys, reference, None, 1)  # fill the plan cache
        conn = _Connection(port)
        health = []
        for _ in range(300):
            t0 = time.perf_counter()
            conn.get("/healthz")
            health.append(time.perf_counter() - t0)
        conn.close()
        untraced, _ = _one_connection(port, keys, reference, None, passes)
        traced, sizes = _one_connection(port, keys, reference, rec, passes)
        a, _ = open_loop(port, keys, reference, cfg.seconds / 4)
        b, _ = closed_loop(port, keys, reference, cfg.seconds / 8)
        rss = system.peak_rss_mb([served.server.pid])
        start_s = served.server.start_s
        service_ms = asyncio.run(_service_calls(served, keys, reference, result))
    finally:
        served.close()
    quiet = _Served(cfg, docs, "--no-telemetry")
    try:
        _one_connection(quiet.port, keys, reference, None, 1)
        no_telemetry, _ = _one_connection(quiet.port, keys, reference, None, passes)
    finally:
        quiet.close()

    own = rec.self_times()
    n = len(rec.durations("serve.request"))
    result.attempted += sum(t.attempted for t in (untraced, traced, a, b, no_telemetry))
    result.failed += sum(t.failed for t in (untraced, traced, a, b, no_telemetry))
    result.metrics.update({
        "serve.start_s": start_s,
        "serve.healthz_rtt_ms": stats.median(health) * 1000.0,
        "serve.search_rtt_ms": rec.mean_ms("serve.request"),
        "serve.engine_wall_ms": rec.mean_ms("serve.engine"),
        "serve.queued_ms": rec.mean_ms("serve.queued"),
        "serve.overhead_ms": own["serve.request"] * 1000.0 / n,
        "serve.service_call_ms": service_ms,
        "serve.response_bytes": sum(sizes) / len(sizes),
        "serve.shed": float(a.shed + b.shed),
        "serve.timeouts": float(a.timeouts + b.timeouts),
        "serve.rss_mb": rss,
        "obs.telemetry_overhead_ms": 1000.0 * (
            stats.mean(untraced.latencies) - stats.mean(no_telemetry.latencies)
        ),
        "loadgen.late_p99_ms": stats.percentile(a.lateness, 0.99) * 1000.0,
        "loadgen.backlog_max": float(a.backlog_max),
        "trace.overhead_ratio":
            stats.mean(traced.latencies) / stats.mean(untraced.latencies),
        "trace.self_time_coverage": rec.coverage("serve.request"),
    })
    result.notes["traced_requests"] = n
    write_trace(rec, "serve_small")


async def _service_calls(served: _Served, keys, reference, result: RunResult) -> float:
    """Mean milliseconds of an in-process ``QueryService.search``: admission,
    the executor hop and payload assembly with no sockets.  The server
    subprocess holds the store's writer lock, so it is stopped first."""
    from repro.serve import QueryService, ServiceConfig

    served.server.stop()
    service = QueryService(served.dir / "store", ServiceConfig(executor="serial"))
    await service.start()
    try:
        for text, _scheme in keys:
            await service.search(text, scheme=SCHEME, top_k=TOP_K)
        started = time.perf_counter()
        for key in keys:
            payload = await service.search(key[0], scheme=SCHEME, top_k=TOP_K)
            result.attempted += 1
            if not check.same_answer(check.answer_of_payload(payload), reference[key]):
                result.failed += 1
        return (time.perf_counter() - started) * 1000.0 / len(keys)
    finally:
        await service.stop()
