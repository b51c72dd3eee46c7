"""A dependency-free asyncio load generator for the query service.

Drives a running :class:`repro.serve.server.HttpServer` over real
sockets with keep-alive connections, and reports what a load balancer
would care about: per-status counts, latency percentiles *of accepted
requests*, and the set of generations/epochs observed — the last one is
how the chaos tests assert that a mid-run hot swap never exposed a torn
generation (every response names exactly one valid generation).

Shed responses (503) are counted, not retried by default: the generator
measures the service's overload behavior rather than papering over it.
With ``respect_retry_after=True`` it honors the jittered backoff hint
instead, which is how a well-behaved client rides out a burst.

Every search carries a client-generated ``X-Request-Id``; the server
must echo it verbatim (and stamp it through its telemetry and query
log), so the report counts ``id_mismatches`` — any nonzero value means
correlation is broken end to end.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field

from repro.bench.workload import PAPER_QUERIES
# One percentile implementation for the whole stack: telemetry's
# sorted-interpolated version (also used by qlog stats and the SLO
# engine), re-exported here for the existing import surface.
from repro.obs.telemetry import percentile  # noqa: F401
from repro.serve.http import HttpError, read_response, request_bytes

#: The paper's workload (Q4..Q11) — same queries the benchmark runs, so
#: a loadgen pass over the bench fixture produces deterministic rows.
DEFAULT_QUERIES = tuple(PAPER_QUERIES.values())


@dataclass
class LoadgenReport:
    """What one load-generation run observed."""

    requests: int = 0
    ok: int = 0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    rows: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    generations: set = field(default_factory=set)
    epochs: set = field(default_factory=set)
    degraded: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    id_mismatches: int = 0
    request_ids: set = field(default_factory=set)

    @property
    def p50_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 0.50)

    @property
    def p95_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 0.95)

    @property
    def p99_ms(self) -> float:
        return percentile(sorted(self.latencies_ms), 0.99)

    @property
    def qps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def merge_response(self, status: int, payload: dict, elapsed_ms: float):
        self.requests += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 200:
            self.ok += 1
            self.latencies_ms.append(elapsed_ms)
            self.rows += len(payload.get("results", ()))
            if payload.get("generation") is not None:
                self.generations.add(payload["generation"])
            if "epoch" in payload:
                self.epochs.add(payload["epoch"])
            if payload.get("degraded") or payload.get(
                "served_degraded_serial"
            ):
                self.degraded += 1
        elif status == 503:
            self.shed += 1
        elif status == 504:
            self.timeouts += 1
        else:
            self.errors += 1

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "rows": self.rows,
            "degraded": self.degraded,
            "generations": sorted(self.generations),
            "epochs": sorted(self.epochs),
            "id_mismatches": self.id_mismatches,
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "qps": round(self.qps, 1),
            "wall_s": round(self.wall_s, 3),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
        }


class _Client:
    """One keep-alive connection issuing GETs and parsing responses."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.reader = self.writer = None

    async def request(
        self,
        path: str,
        method: str = "GET",
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict, dict[str, str]]:
        """Issue one request; reconnects once if the peer closed."""
        if self.writer is None:
            await self.connect()
        try:
            return await self._roundtrip(path, method, body, headers)
        except (ConnectionError, asyncio.IncompleteReadError, HttpError):
            await self.close()
            await self.connect()
            return await self._roundtrip(path, method, body, headers)

    async def _roundtrip(
        self,
        path: str,
        method: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict, dict[str, str]]:
        assert self.reader is not None and self.writer is not None
        self.writer.write(request_bytes(
            method, path, body=body,
            headers={"Host": f"{self.host}:{self.port}", **(headers or {})},
        ))
        await self.writer.drain()
        status, headers, raw = await read_response(self.reader)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return status, payload, headers


async def run_loadgen(
    host: str,
    port: int,
    *,
    requests: int = 200,
    concurrency: int = 8,
    queries: tuple[str, ...] = DEFAULT_QUERIES,
    scheme: str = "sumbest",
    top_k: int = 10,
    deadline_ms: float | None = None,
    respect_retry_after: bool = False,
    swap_at: int | None = None,
) -> LoadgenReport:
    """Round-robin ``requests`` searches over ``queries``.

    ``swap_at``: after that many responses have arrived, POST
    ``/admin/checkpoint`` once from a side connection — the mid-run hot
    swap of the CI smoke test.  ``respect_retry_after``: sleep out the
    server's backoff hint on 503 and retry the same request (it still
    counts the shed response).
    """
    from urllib.parse import quote

    report = LoadgenReport()
    next_index = 0
    swap_done = swap_at is None
    lock = asyncio.Lock()
    started = time.monotonic()

    async def maybe_swap() -> None:
        nonlocal swap_done
        if swap_done or report.requests < swap_at:
            return
        swap_done = True
        side = _Client(host, port)
        try:
            await side.request("/admin/checkpoint", method="POST")
        finally:
            await side.close()

    async def worker() -> None:
        nonlocal next_index
        client = _Client(host, port)
        await client.connect()
        try:
            while True:
                async with lock:
                    if next_index >= requests:
                        return
                    index = next_index
                    next_index += 1
                query = queries[index % len(queries)]
                path = (
                    f"/search?q={quote(query)}&scheme={scheme}"
                    f"&top_k={top_k}"
                )
                if deadline_ms is not None:
                    path += f"&deadline_ms={deadline_ms}"
                while True:
                    # A fresh client-side correlation id per attempt; the
                    # server must echo it back verbatim.
                    rid = f"lg-{index:08d}-{os.urandom(4).hex()}"
                    sent = time.monotonic()
                    status, payload, headers = await client.request(
                        path, headers={"X-Request-Id": rid}
                    )
                    elapsed_ms = (time.monotonic() - sent) * 1000.0
                    async with lock:
                        report.merge_response(status, payload, elapsed_ms)
                        report.request_ids.add(rid)
                        if headers.get("x-request-id") != rid:
                            report.id_mismatches += 1
                    await maybe_swap()
                    if status == 503 and respect_retry_after:
                        await asyncio.sleep(
                            float(headers.get("retry-after", "0.05"))
                        )
                        continue
                    break
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    report.wall_s = time.monotonic() - started
    return report
