"""Layer 7 end to end: span export, SLO burn rates, the ops console.

The acceptance tests for the unified observability PR, over real
sockets: one request yields one schema-valid span tree at
``/debug/trace/<id>`` whose root covers the request wall time;
``/debug/slo`` flips to breaching under an injected latency fault and
recovers once it clears (arming and disarming early shedding on the
way); ``/metrics`` advertises the Prometheus exposition content type;
``repro top --once --json`` scrapes it all through the public surface.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import time

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate
from repro.obs.slo import BurnWindow, SloEngine, parse_slo_spec
from repro.obs.spans import trace_id_for, verify_trace
from repro.serve import ServiceConfig
from repro.serve.console import run_top
from repro.serve.loadgen import _Client
from tests.obs.test_spans import SCHEMA
from tests.serve.test_telemetry_e2e import (
    make_store,
    slow_execute_wrapper,
    start_server,
)


def spans_config(**kw) -> ServiceConfig:
    return ServiceConfig(max_inflight=4, max_queue=16, deadline_ms=5000.0,
                         spans=True, **kw)


#: Tight burn windows so a breach/recovery cycle fits in a test: 2s
#: long window, 0.4s short confirmation, page above 2x burn.
TIGHT = (BurnWindow("fast", long_s=2.0, short_s=0.4, max_burn_rate=2.0),)


def tighten_slo(service) -> None:
    """Swap the service's SLO engine for one with sub-second windows."""
    service.slo = SloEngine(
        list(service.slo.objectives),
        windows=TIGHT,
        eval_interval_s=0.0,
        registry=MetricsRegistry(),
    )


# -- the span-tree acceptance test ------------------------------------------


def test_request_yields_one_consistent_span_tree(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    rid = "e2e-trace-0001"

    async def run():
        server = await start_server(root, spans_config())
        slow_execute_wrapper(
            server.service.readers.current.engine, sleep_s=0.12
        )
        client = _Client(server.host, server.port)
        try:
            started = time.perf_counter()
            status, body, _ = await client.request(
                "/search?q=quick+fox&top_k=3",
                headers={"X-Request-Id": rid},
            )
            client_ms = (time.perf_counter() - started) * 1000.0
            assert status == 200
            assert body["request_id"] == rid
            status, payload, _ = await client.request(f"/debug/trace/{rid}")
            assert status == 200
            return payload, client_ms
        finally:
            await client.close()
            await server.stop()

    payload, client_ms = asyncio.run(run())
    # The contract: schema-valid, ids consistent, one root.
    validate(payload, SCHEMA)
    spans = verify_trace(payload)
    assert all(s["traceId"] == trace_id_for(rid) for s in spans)
    root_span = [s for s in spans if not s["parentSpanId"]][0]
    assert root_span["name"] == "/search"
    root_ms = (int(root_span["endTimeUnixNano"])
               - int(root_span["startTimeUnixNano"])) / 1e6
    # The root span covers the request: within 10% of the wall time the
    # client measured (the slow execute dominates both).
    assert root_ms >= 120.0
    assert root_ms >= 0.9 * client_ms, (root_ms, client_ms)
    assert root_ms <= client_ms * 1.05, (root_ms, client_ms)
    # The full phase timeline hangs off the root.
    names = {s["name"] for s in spans}
    for phase in ("queue_wait", "parse", "optimize", "execute", "serialize"):
        assert phase in names, names


def test_trace_endpoint_errors(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def run():
        server = await start_server(root, spans_config())
        client = _Client(server.host, server.port)
        try:
            status, body, _ = await client.request("/debug/trace/absent-id")
            assert status == 404
            # The raw path is not percent-decoded, so a hostile id needs
            # a byte the sanitizer rejects outright — a quote qualifies.
            status, body, _ = await client.request('/debug/trace/bad"id')
            assert status == 400
            status, _, _ = await client.request(
                "/debug/trace/x", method="POST"
            )
            assert status == 405
        finally:
            await client.close()
            await server.stop()

    asyncio.run(run())


def test_trace_endpoint_503_when_export_disabled(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def run():
        server = await start_server(root)
        client = _Client(server.host, server.port)
        try:
            status, body, _ = await client.request("/debug/trace/anything")
            assert status == 503
            assert "--spans" in body["error"]
            status, body, _ = await client.request("/debug/slo")
            assert status == 503
            assert "--slo" in body["error"]
        finally:
            await client.close()
            await server.stop()

    asyncio.run(run())


def test_span_ring_state_visible_in_status(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def run():
        server = await start_server(root, spans_config(spans_capacity=8))
        client = _Client(server.host, server.port)
        try:
            for _ in range(3):
                await client.request("/search?q=quick")
            status, body, _ = await client.request("/status")
            assert status == 200
            return body
        finally:
            await client.close()
            await server.stop()

    body = asyncio.run(run())
    assert body["spans"] == {"ring": 3, "capacity": 8, "written": None}
    assert body["slo"] is None


# -- the SLO breach/recovery acceptance test --------------------------------


def test_slo_breaches_under_fault_and_recovers(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    config = ServiceConfig(
        max_inflight=4, max_queue=16, deadline_ms=5000.0,
        slos=("latency:p99:10ms:0.99",), slo_shed=True,
    )

    async def run():
        server = await start_server(root, config)
        tighten_slo(server.service)
        engine = server.service.readers.current.engine
        original_search = engine.search
        slow_execute_wrapper(engine, sleep_s=0.05)  # 50ms >> 10ms SLO
        client = _Client(server.host, server.port)
        try:
            for _ in range(8):
                status, _, _ = await client.request("/search?q=quick")
                assert status == 200
            status, breach_report, _ = await client.request("/debug/slo")
            assert status == 200

            # The fault clears; the short confirmation window drains.
            engine.search = original_search
            await asyncio.sleep(0.6)
            for _ in range(8):
                await client.request("/search?q=quick")
            status, recovery_report, _ = await client.request("/debug/slo")
            assert status == 200
            status, svc_status, _ = await client.request("/status")
            return breach_report, recovery_report, svc_status
        finally:
            await client.close()
            await server.stop()

    # Recovery needs eight uninjected requests under the 10 ms objective.
    # In a full test session the heap holds every earlier test's objects
    # (about 250 000), and one full collection of them takes about 20 ms:
    # landing inside a request, it alone breaches the objective.  Freezing
    # the heap leaves the collector only this test's own objects.
    gc.freeze()
    try:
        breach, recovery, svc_status = asyncio.run(run())
    finally:
        gc.unfreeze()

    assert breach["breaching"] is True
    assert breach["fast_burn_breaching"] is True
    objective = breach["objectives"][0]
    assert objective["name"] == "latency_p99_10ms"
    assert objective["state"] == "breaching"
    assert objective["windows"]["fast"]["breaching"] is True
    assert objective["measured_ms"] >= 50.0
    assert objective["budget"]["remaining_fraction"] == 0.0
    # Fast burn armed the admission controller's early shedding.
    assert breach["shed_pressure"] is True

    assert recovery["breaching"] is False
    assert recovery["objectives"][0]["state"] == "ok"
    assert recovery["shed_pressure"] is False
    assert svc_status["slo"] == {
        "objectives": 1, "breaching": [], "shed_pressure": False,
    }


def test_pressure_mode_halves_the_admission_watermark():
    from repro.serve import AdmissionController

    controller = AdmissionController(
        max_inflight=4, max_queue=10, registry=MetricsRegistry()
    )
    assert controller.effective_max_queue() == 10
    controller.set_pressure(True)
    assert controller.effective_max_queue() == 5
    controller.set_pressure(False)
    assert controller.effective_max_queue() == 10


def test_pressure_shed_is_counted_and_labeled():
    from repro.serve import AdmissionController, ShedRequest

    async def run():
        controller = AdmissionController(
            max_inflight=1, max_queue=2, registry=MetricsRegistry()
        )
        controller.set_pressure(True)  # watermark drops to 1
        await controller.admit()       # take the slot
        waiter = asyncio.ensure_future(controller.admit())  # queued: 1
        await asyncio.sleep(0)
        try:
            await controller.admit()   # at the reduced watermark: shed
        except ShedRequest as exc:
            message = str(exc)
        else:
            raise AssertionError("expected a shed at reduced watermark")
        finally:
            controller.exit()
            await waiter
            controller.exit()
        return message, controller.pressure_sheds

    message, pressure_sheds = asyncio.run(run())
    assert "[slo pressure]" in message
    assert pressure_sheds == 1


# -- /metrics content type (satellite) --------------------------------------


def test_metrics_exposition_content_type(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def run():
        server = await start_server(root)
        client = _Client(server.host, server.port)
        try:
            await client.request("/search?q=quick")  # populate families
            status, body, headers = await client.request("/metrics")
            assert status == 200
            return body, headers
        finally:
            await client.close()
            await server.stop()

    body, headers = asyncio.run(run())
    assert headers["content-type"] == \
        "text/plain; version=0.0.4; charset=utf-8"
    assert "graft_" in body["raw"]


# -- repro top over a live service ------------------------------------------


def test_top_once_json_scrapes_the_live_service(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    config = spans_config(slos=("latency:p99:50ms:0.99",))

    async def run():
        server = await start_server(root, config)
        client = _Client(server.host, server.port)
        try:
            await client.request("/search?q=quick")
            out = io.StringIO()
            # run_top is synchronous urllib — hop off the event loop so
            # the server can answer its polls.
            code = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: run_top(f"{server.host}:{server.port}",
                                once=True, as_json=True, out=out),
            )
            return code, out.getvalue()
        finally:
            await client.close()
            await server.stop()

    code, output = asyncio.run(run())
    assert code == 0
    snapshot = json.loads(output)
    assert snapshot["status"]["ready"] is True
    assert snapshot["status"]["spans"]["ring"] == 1
    assert snapshot["slo"]["objectives"][0]["name"] == "latency_p99_50ms"
    assert "graft_http_request_seconds" in snapshot["metrics"]


def test_top_exit_2_against_nothing():
    assert run_top("127.0.0.1:1", once=True, out=io.StringIO()) == 2


# -- repro slow on v1 records (satellite) -----------------------------------


def test_slow_skips_unattributable_v1_records(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    v2 = {
        "request_id": "r1", "route": "/search", "query": "q", "scheme": "s",
        "status": 200, "ts": 1.0, "wall_ms": 12.0,
        "phase_ms": {"parse": 2.0, "execute": 10.0},
        "unattributed_ms": 0.0, "shards": [], "notes": {},
    }
    v1_no_phases = {"schema": 1, "query": "old", "wall_ms": 5.0,
                    "status": "ok"}
    v1_no_rid = {"phase_ms": {"parse": 1.0}, "wall_ms": 3.0}
    lines = [v2, v1_no_phases, v1_no_rid, dict(v2, request_id="r2")]
    path.write_text("\n".join(json.dumps(e) for e in lines) + "\n")

    assert main(["slow", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["skipped"] == 2
    assert report["events"] == 2
    assert "skipped 2 record(s)" in captured.err

    # Text mode reports the skip count too.
    assert main(["slow", str(path)]) == 0
    captured = capsys.readouterr()
    assert "(2 unattributable record(s) skipped)" in captured.out


def test_slow_all_v1_records_degrades_to_empty_report(tmp_path, capsys):
    path = tmp_path / "v1.jsonl"
    records = [
        {"schema": 1, "query": "a", "wall_ms": 5.0, "status": "ok"},
        {"schema": 1, "query": "b", "wall_ms": 7.0, "status": "ok"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["slow", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["skipped"] == 2
    assert report["events"] == 0
