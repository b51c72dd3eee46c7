"""End-to-end over real sockets: routing, overload, swap, drain.

In-process tests drive :class:`HttpServer` through the loopback with the
stdlib client in :mod:`repro.serve.loadgen`; the final test boots the
actual ``repro serve`` CLI in a subprocess and SIGTERMs it mid-traffic.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api import SearchEngine
from repro.obs.metrics import MetricsRegistry
from repro.serve import HttpServer, QueryService, ServiceConfig
from repro.serve.http import read_response, request_bytes
from repro.serve.loadgen import _Client, run_loadgen

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
    "san francisco fault line stories quick fox",
]


def make_store(root) -> None:
    with SearchEngine.open(root) as engine:
        for i, text in enumerate(TEXTS):
            engine.add(text, title=f"doc{i}")
        engine.checkpoint()


async def start_server(root, config=None) -> HttpServer:
    service = QueryService(
        root,
        config or ServiceConfig(max_inflight=4, max_queue=8,
                                deadline_ms=5000.0),
        registry=MetricsRegistry(),
    )
    server = HttpServer(service, registry=service.registry)
    await server.start()
    return server


def test_routes_health_metrics_and_errors(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        server = await start_server(root)
        client = _Client(server.host, server.port)
        try:
            status, body, _ = await client.request("/healthz")
            assert (status, body) == (200, {"alive": True})
            status, body, _ = await client.request("/readyz")
            assert status == 200 and body["ready"] is True
            status, body, _ = await client.request(
                "/search?q=quick%20fox&top_k=3"
            )
            assert status == 200
            assert len(body["results"]) == 3
            status, body, _ = await client.request("/explain?q=quick+fox")
            assert status == 200 and body["plan"]
            status, body, _ = await client.request("/status")
            assert status == 200 and body["writer_alive"] is True
            status, body, headers = await client.request("/metrics")
            assert status == 200
            assert "graft_http_requests_total" in body.get("raw", "")
            assert headers["content-type"].startswith("text/plain")
            status, body, _ = await client.request("/metrics?format=json")
            assert status == 200 and "families" in json.dumps(body) or body
            # Error surface: missing q, bad param, unknown route/method.
            status, body, _ = await client.request("/search")
            assert status == 400
            status, body, _ = await client.request("/search?q=x&top_k=soon")
            assert status == 400
            status, body, _ = await client.request("/nowhere")
            assert status == 404
            status, body, _ = await client.request("/search", method="POST")
            assert status == 405
            status, body, _ = await client.request(
                "/add", method="POST", body=b"not json"
            )
            assert status == 400
            status, body, _ = await client.request(
                "/add", method="POST",
                body=json.dumps({"text": "added over http",
                                 "title": "new"}).encode(),
            )
            assert status == 202 and body["doc_id"] == len(TEXTS)
            status, body, _ = await client.request(
                "/admin/checkpoint", method="POST"
            )
            assert status == 200 and body["epoch"] == 2
            status, body, _ = await client.request("/search?q=added+http")
            assert status == 200
            assert [r["title"] for r in body["results"]] == ["new"]
        finally:
            await client.close()
            await server.stop()

    asyncio.run(main())


def test_overload_sheds_with_retry_after_and_accepted_meet_deadline(
    tmp_path,
):
    """Satellite + tentpole acceptance: under 4x oversubscription the
    server sheds with 503 + Retry-After, answers every request, and the
    p99 of *accepted* requests stays under the configured deadline."""
    root = tmp_path / "store"
    make_store(root)
    deadline_ms = 2000.0

    async def main():
        config = ServiceConfig(
            max_inflight=1, max_queue=1, deadline_ms=deadline_ms,
            executor_workers=1, retry_after_s=0.2, retry_jitter_s=0.3,
        )
        server = await start_server(root, config)
        service = server.service

        # Slow the engine down so concurrency actually piles up.
        handle = service.readers.current
        original = handle.engine.search

        def slow_search(*a, **kw):
            time.sleep(0.05)
            return original(*a, **kw)

        handle.engine.search = slow_search
        report = await run_loadgen(
            server.host, server.port, requests=24, concurrency=12,
        )
        assert report.requests == 24
        assert report.errors == 0, report.summary()
        assert report.shed > 0  # the watermark did its job
        assert report.ok + report.shed + report.timeouts == 24
        assert report.p99_ms <= deadline_ms
        # Shed responses carried a parseable jittered Retry-After.
        client = _Client(server.host, server.port)
        service.admission.queued = config.max_queue  # force a shed
        try:
            status, _, headers = await client.request("/search?q=quick")
            assert status == 503
            assert 0.2 <= float(headers["retry-after"]) < 0.5
        finally:
            service.admission.queued = 0
            await client.close()
            await server.stop()

    asyncio.run(main())


def test_loadgen_mid_run_hot_swap_zero_errors(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        server = await start_server(root)
        # Ingest so the mid-run checkpoint actually changes generation.
        client = _Client(server.host, server.port)
        await client.request(
            "/add", method="POST",
            body=json.dumps({"text": "mid run quick fox doc"}).encode(),
        )
        await client.close()
        before = server.service.status()["generation"]
        report = await run_loadgen(
            server.host, server.port, requests=60, concurrency=6,
            swap_at=10,
        )
        await server.stop()
        assert report.errors == 0 and report.timeouts == 0, report.summary()
        assert report.ok + report.shed == 60
        # Every response named exactly one complete generation; once the
        # swap landed, later responses moved to the new one.
        after = {g for g in report.generations}
        assert before in after or len(after) >= 1
        assert server.service.readers.swaps >= 2
        for generation in after:
            assert generation.startswith("gen-")

    asyncio.run(main())


def test_graceful_drain_waits_for_inflight_requests(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        server = await start_server(root)
        service = server.service
        handle = service.readers.current
        original = handle.engine.search

        def slow_search(*a, **kw):
            time.sleep(0.2)
            return original(*a, **kw)

        handle.engine.search = slow_search
        client = _Client(server.host, server.port)
        await client.connect()
        inflight = asyncio.ensure_future(
            client.request("/search?q=quick+fox")
        )
        await asyncio.sleep(0.05)  # request is executing
        stop = asyncio.ensure_future(server.stop())
        status, body, _ = await inflight
        assert status == 200 and body["results"]
        await stop
        await client.close()
        # New connections are refused after the drain.
        with pytest.raises(OSError):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.close()

    asyncio.run(main())


def test_a_request_sent_just_before_the_drain_gets_a_503_not_a_reset(
    tmp_path,
):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        server = await start_server(root)
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        try:
            writer.write(request_bytes("GET", "/healthz"))
            status, _, _ = await read_response(reader)
            assert status == 200
            # The connection is idle; the next request reaches the
            # server's socket before its loop has read it, and the drain
            # begins first.
            writer.write(request_bytes("GET", "/search?q=quick"))
            stop = server.shutdown()
            answer = await read_response(reader)
            await stop
        finally:
            writer.close()
        return answer

    status, headers, body = asyncio.run(main())
    assert (status, headers["connection"]) == (503, "close")
    assert json.loads(body)["error"] == "service is draining"


@pytest.mark.parametrize("host", ["localhost", ""])
def test_the_server_listens_on_every_address_of_its_host(tmp_path, host):
    """``localhost`` may resolve to ::1 and 127.0.0.1, and ``''`` means
    every interface: a client on the loopback address of each family
    the host resolves to gets through."""
    root = tmp_path / "store"
    make_store(root)
    loopback = {"0.0.0.0": "127.0.0.1", "::": "::1"}
    addresses = {
        loopback.get(info[4][0], info[4][0])
        for info in socket.getaddrinfo(
            host or None, 0, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )
    }

    async def main():
        server = await start_server(root, ServiceConfig(host=host))
        seen = []
        try:
            for address in sorted(addresses):
                client = _Client(address, server.port)
                try:
                    status, _, _ = await client.request("/healthz")
                finally:
                    await client.close()
                seen.append((address, status))
        finally:
            await server.stop()
        return seen

    seen = asyncio.run(main())
    assert seen and all(status == 200 for _, status in seen), seen


def test_cli_serve_subprocess_sigterm_drains_cleanly(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    env = dict(os.environ)
    repo_src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(root), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "on http://" in line, line
        port = int(line.rsplit(":", 1)[1])

        async def drive():
            report = await run_loadgen(
                "127.0.0.1", port, requests=30, concurrency=3
            )
            return report

        report = asyncio.run(drive())
        assert report.ok == 30, report.summary()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=15)
        assert proc.returncode == 0
        assert "drained; bye" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_metric_labels_are_route_templates_not_raw_paths(tmp_path):
    """Every 404 path and every trace id shares one label value, so no
    client can grow the registry (or a merged /metrics) without bound."""
    root = tmp_path / "store"
    make_store(root)
    rng = random.Random(7)

    def token() -> str:
        return "".join(rng.choice("abcdefghjkmnpqrstvwxyz0123456789")
                       for _ in range(12))

    async def main():
        server = await start_server(root)
        client = _Client(server.host, server.port)
        try:
            for _ in range(500):
                status, _, _ = await client.request(f"/{token()}/{token()}")
                assert status == 404
            for _ in range(500):
                status, _, _ = await client.request(f"/debug/trace/{token()}")
                assert status == 503  # span export is off
            status, _, _ = await client.request("/search", method="POST")
            assert status == 405
        finally:
            await client.close()
            await server.stop()
        return server.registry

    registry = asyncio.run(main())
    counted = {key for key, _ in registry.get(
        "graft_http_requests_total").samples()}
    timed = {key for key, _ in registry.get(
        "graft_http_request_seconds").samples()}
    assert counted == {
        ("(unmatched)", "404"), ("(unmatched)", "405"),
        ("/debug/trace/{id}", "503"),
    }
    assert timed == {("(unmatched)",), ("/debug/trace/{id}",)}


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1"])
def test_a_non_finite_or_non_positive_deadline_is_a_client_error(
    tmp_path, raw
):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        server = await start_server(root)
        client = _Client(server.host, server.port)
        try:
            status, body, _ = await client.request(
                f"/search?q=quick&deadline_ms={raw}"
            )
            _, info, _ = await client.request("/status")
        finally:
            await client.close()
            await server.stop()
        return status, body, info

    status, body, info = asyncio.run(main())
    assert status == 400 and "deadline_ms" in body["error"]
    assert info["telemetry"]["client_error"] == 1
    assert info["telemetry"]["timeout"] == 0
    assert info["admission_timeouts"] == 0 and info["admitted"] == 0
