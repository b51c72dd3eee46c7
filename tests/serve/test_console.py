"""The ops console as a pure function: one snapshot in, one screen out.

``render`` never touches a socket, so these tests pin the exact
dashboard an operator sees — ready state, traffic counters, latency
percentiles, SLO budget bars — from fabricated snapshots.  ``run_top``
is driven with a monkeypatched ``poll`` for the loop/exit behavior; the
real-socket path is covered by the service e2e tests.
"""

from __future__ import annotations

import io
import json

from repro.serve import console
from repro.serve.console import _bar, render, run_top


PROCESSES = [
    {"pid": 4100, "role": "writer", "generation": 3, "inflight": 1,
     "requests": 812},
    {"pid": 4101, "role": "reader", "generation": 3, "inflight": 1,
     "requests": 790, "alive": True},
    {"pid": 4102, "role": "reader", "alive": False, "exit_code": -9},
]


def snapshot(**overrides) -> dict:
    base = {
        "polled_at": 0.0,
        "url": "http://localhost:8080",
        "status": {
            "ready": True,
            "generation": 3,
            "epoch": 7,
            "doc_count": 1200,
            "writer_alive": True,
            "breaker": "closed",
            "inflight": 2,
            "queued": 1,
            "admitted": 5000,
            "shed": 12,
            "admission_timeouts": 3,
            "swaps": 2,
            "telemetry": {
                "requests": 480,
                "window_s": 300.0,
                "shed_rate": 0.025,
                "error_rate": 0.0,
                "latency_ms": {"p50": 4.2, "p95": 11.0, "p99": 42.7},
            },
            "slo": None,
            "spans": {"ring": 17, "capacity": 256, "written": None},
        },
        "slo": None,
        "processes": PROCESSES,
        "metrics": {
            "graft_plan_cache_hits_total": {
                "kind": "counter", "help": "",
                "samples": [{"labels": {}, "value": 90.0}],
            },
            "graft_plan_cache_misses_total": {
                "kind": "counter", "help": "",
                "samples": [{"labels": {}, "value": 10.0}],
            },
        },
    }
    base.update(overrides)
    return base


SLO_REPORT = {
    "enabled": True,
    "observed": 480,
    "breaching": True,
    "fast_burn_breaching": True,
    "shed_pressure": True,
    "objectives": [
        {
            "name": "latency_p99_50ms",
            "kind": "latency",
            "state": "breaching",
            "measured_ms": 81.4,
            "windows": {"fast": {"long_burn_rate": 22.5}},
            "budget": {"remaining_fraction": 0.1},
        },
        {
            "name": "availability_999",
            "kind": "availability",
            "state": "ok",
            "windows": {"fast": {"long_burn_rate": 0.0}},
            "budget": {"remaining_fraction": 1.0},
        },
    ],
}


def test_render_headline_and_traffic():
    screen = render(snapshot(), color=False)
    assert "READY" in screen
    assert "gen=3" in screen and "docs=1200" in screen
    assert "inflight=2" in screen and "shed=12" in screen
    assert "p50=    4.20ms" in screen
    assert "p99=   42.70ms" in screen
    assert "plan_cache= 90.0%" in screen
    assert "ring=17/256" in screen


def test_render_one_line_per_server_process():
    lines = render(snapshot(), color=False).splitlines()
    procs = [line for line in lines if line.startswith("process")]
    assert len(procs) == 3
    assert "pid=4100" in procs[0] and "role=writer" in procs[0]
    assert "requests=812" in procs[0] and "inflight=1" in procs[0]
    assert "pid=4101" in procs[1] and "gen=3" in procs[1]
    assert "GONE" in procs[2] and "GONE" not in procs[1]


def test_poll_lifts_the_process_rows_out_of_status(monkeypatch):
    status = snapshot()["status"]
    status["processes"] = PROCESSES
    monkeypatch.setattr(
        console, "_fetch",
        lambda base, path, timeout_s: status if path == "/status" else None,
    )
    polled = console.poll("http://h:1")
    assert polled["processes"] == PROCESSES
    assert polled["status"]["processes"] == PROCESSES


def test_render_not_ready_and_missing_sections():
    snap = snapshot()
    snap["status"]["ready"] = False
    snap["status"]["telemetry"] = None
    snap["status"]["spans"] = None
    snap["metrics"] = {}
    screen = render(snap, color=False)
    assert "NOT READY" in screen
    assert "(telemetry disabled)" in screen
    assert "plan_cache=    -" in screen
    assert "no objectives configured" in screen
    assert "spans" not in screen.splitlines()[-1]


def test_render_slo_budget_bars_and_pressure():
    screen = render(snapshot(slo=SLO_REPORT), color=False)
    assert "latency_p99_50ms" in screen
    assert "BREACHING" in screen
    assert "budget  10.0%" in screen
    assert "burn(fast)=22.50" in screen
    assert "measured=81.40ms" in screen
    assert "availability_999" in screen
    assert "budget 100.0%" in screen
    assert "early shedding ARMED" in screen


def test_render_color_codes_only_when_asked():
    plain = render(snapshot(slo=SLO_REPORT), color=False)
    colored = render(snapshot(slo=SLO_REPORT), color=True)
    assert "\x1b[" not in plain
    assert "\x1b[31m" in colored  # breaching objective painted red


def test_bar_geometry():
    assert _bar(1.0) == "#" * 20
    assert _bar(0.0) == "-" * 20
    assert _bar(0.5) == "#" * 10 + "-" * 10
    assert _bar(2.0) == "#" * 20   # clamped
    assert _bar(-1.0) == "-" * 20


def test_run_top_once_json_emits_the_raw_snapshot(monkeypatch):
    snap = snapshot(slo=SLO_REPORT)
    monkeypatch.setattr(console, "poll", lambda base, timeout_s=5.0: snap)
    out = io.StringIO()
    code = run_top("localhost:8080", once=True, as_json=True, out=out)
    assert code == 0
    parsed = json.loads(out.getvalue())
    assert parsed["status"]["generation"] == 3
    assert parsed["slo"]["breaching"] is True
    assert [p["pid"] for p in parsed["processes"]] == [4100, 4101, 4102]


def test_run_top_iterations_bound_the_loop(monkeypatch):
    calls = []

    def fake_poll(base, timeout_s=5.0):
        calls.append(base)
        return snapshot()

    monkeypatch.setattr(console, "poll", fake_poll)
    out = io.StringIO()
    code = run_top("http://h:1", interval_s=0.0, iterations=2, out=out,
                   color=False)
    assert code == 0
    assert len(calls) == 2
    assert out.getvalue().count("repro top") == 2


def test_run_top_unreachable_service_exits_2(monkeypatch, capsys):
    def dead_poll(base, timeout_s=5.0):
        raise ConnectionError(f"cannot reach {base}/status")

    monkeypatch.setattr(console, "poll", dead_poll)
    assert run_top("localhost:9", once=True, out=io.StringIO()) == 2
    assert "cannot reach" in capsys.readouterr().err
