"""End-to-end query-service throughput: qps, p50, p99 over sockets.

The other benchmarks time the engine from the inside; this module times
what a client actually experiences — HTTP framing, admission control,
the thread-pool handoff, and the reader generation — by booting the
full :mod:`repro.serve` stack on an ephemeral loopback port and driving
it with the stdlib load generator over the eight paper queries.

Three legs:

* **steady state** — generous limits, nothing shed: the service-layer
  overhead on top of raw engine execution, reported as qps with p50/p99
  of accepted requests.  ``rows`` is the exact total result count of
  the run, recorded next to the timings.
* **hot swap under load** — the same run with a mid-run checkpoint and
  reader generation swap: what swapping costs live traffic, with zero
  dropped requests by construction.
* **overload** — 4x oversubscription against a single execution slot:
  how fast the service says no (shed 503s are the point, not errors).

The module measures and gates nothing: the service's wall clock is
judged by ``python -m graftbench compare`` on ``serve_small``, which
also checks every served answer, and the paper workload's work counters
by ``tests/bench/test_counters.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import SearchEngine
from repro.bench.reporting import render_table
from repro.serve import HttpServer, QueryService, ServiceConfig
from repro.serve.loadgen import run_loadgen

from benchmarks.conftest import median_seconds, write_artifact, write_bench_json

SCHEME = "sumbest"
REQUESTS = 64
CONCURRENCY = 8

REPORTS: dict[str, dict] = {}


def _store(fx, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-bench") / "store"
    engine = SearchEngine(fx.collection)
    engine._index = fx.index  # reuse the session fixture's index
    engine.save(root)
    return root


async def _drive(store, config, **loadgen_kw):
    service = QueryService(store, config)
    server = HttpServer(service, registry=service.registry)
    host, port = await server.start()
    try:
        report = await run_loadgen(host, port, scheme=SCHEME, **loadgen_kw)
        return report, service.status()
    finally:
        await server.stop()


def _generous() -> ServiceConfig:
    # Sized so the steady-state run never sheds: measure, don't refuse.
    return ServiceConfig(
        max_inflight=CONCURRENCY, max_queue=REQUESTS, deadline_ms=60_000.0
    )


def test_steady_state_throughput(benchmark, fx, tmp_path_factory):
    store = _store(fx, tmp_path_factory)

    def run():
        report, _ = asyncio.run(_drive(
            store, _generous(),
            requests=REQUESTS, concurrency=CONCURRENCY,
        ))
        assert not (report.errors or report.shed or report.timeouts), (
            report.summary()
        )
        run.rows = report.rows
        run.report = report

    run.rows = None
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["rows"] = run.rows
    REPORTS["steady_state"] = {
        **run.report.summary(), "median_s": median_seconds(benchmark),
    }


def test_hot_swap_under_load(benchmark, fx, tmp_path_factory):
    store = _store(fx, tmp_path_factory)

    def run():
        report, status = asyncio.run(_drive(
            store, _generous(),
            requests=REQUESTS, concurrency=CONCURRENCY,
            swap_at=REQUESTS // 4,
        ))
        assert not (report.errors or report.shed or report.timeouts), (
            report.summary()
        )
        # The swap really happened behind live traffic, losslessly.
        assert status["swaps"] >= 1, status
        run.rows = report.rows
        run.report = report

    run.rows = None
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["rows"] = run.rows
    REPORTS["hot_swap"] = {
        **run.report.summary(), "median_s": median_seconds(benchmark),
    }


def test_overload_sheds_fast(benchmark, fx, tmp_path_factory):
    store = _store(fx, tmp_path_factory)
    config = ServiceConfig(
        max_inflight=1, max_queue=2, deadline_ms=10_000.0,
        executor_workers=1, retry_after_s=0.05, retry_jitter_s=0.05,
    )

    def run():
        report, _ = asyncio.run(_drive(
            store, config,
            requests=REQUESTS, concurrency=4 * CONCURRENCY,
        ))
        assert report.errors == 0, report.summary()
        assert report.shed > 0, report.summary()  # overload must shed
        run.report = report

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    REPORTS["overload"] = {
        **run.report.summary(), "median_s": median_seconds(benchmark),
    }


def test_service_load_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if set(REPORTS) != {"steady_state", "hot_swap", "overload"}:
        pytest.skip("measurements missing (run the whole module)")

    # The swap must not change what clients see: rows are exact.
    assert REPORTS["steady_state"]["rows"] == REPORTS["hot_swap"]["rows"]

    table_rows = [
        [
            leg,
            f"{r['qps']:.1f} q/s",
            f"{r['p50_ms']:.2f} ms",
            f"{r['p99_ms']:.2f} ms",
            f"{r['ok']}/{r['requests']}",
            str(r["shed"]),
        ]
        for leg, r in REPORTS.items()
    ]
    text = render_table(
        ["leg", "throughput", "p50", "p99", "ok", "shed"],
        table_rows,
        title=(
            f"Query service under load "
            f"({REQUESTS} requests, {CONCURRENCY} clients)"
        ),
    )
    write_artifact("service_load.txt", text)
    steady = REPORTS["steady_state"]
    write_bench_json(
        "service_load_report",
        REPORTS,
        wall_ms=steady["median_s"] * 1000.0,
        rows=steady["rows"],
        params={
            "scheme": SCHEME,
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "qps": round(steady["qps"], 2),
            "p50_ms": round(steady["p50_ms"], 3),
            "p99_ms": round(steady["p99_ms"], 3),
        },
    )