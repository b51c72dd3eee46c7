"""Benchmark history, baselines, and the ``repro bench`` regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench.history import (
    append_history,
    bench_record,
    compare_to_baseline,
    latest_run,
    load_baseline,
    load_history,
    new_run_id,
    scaling_gate,
    write_baseline,
)
from repro.cli import main
from repro.errors import GraftError


def record(name, wall_ms=10.0, rows=5, run_id="run-a"):
    return bench_record(
        name, run_id=run_id, wall_ms=wall_ms, rows=rows,
        params={"docs": 100},
    )


# -- records and history ---------------------------------------------------


def test_bench_record_stable_schema():
    rec = record("workload_Q4")
    assert rec["schema"] == 1
    assert rec["name"] == "workload_Q4"
    assert rec["run_id"] == "run-a"
    assert rec["wall_ms"] == 10.0
    assert rec["rows"] == 5
    assert rec["params"] == {"docs": 100}
    assert rec["ts"] > 0


def test_bench_record_requires_name_and_run_id():
    with pytest.raises(GraftError):
        bench_record("", run_id="r")
    with pytest.raises(GraftError):
        bench_record("x", run_id="")


def test_run_ids_are_unique():
    assert new_run_id() != new_run_id()


def test_append_and_load_history(tmp_path):
    path = tmp_path / "nested" / "history.jsonl"
    append_history(record("a"), path)  # single dict accepted
    append_history([record("b"), record("c", run_id="run-b")], path)
    history = load_history(path)
    assert [r["name"] for r in history] == ["a", "b", "c"]
    # One JSONL line per record, each parseable on its own.
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        json.loads(line)


def test_load_history_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.jsonl") == []


def test_load_history_names_malformed_line(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text('{"ok": 1}\n{torn\n')
    with pytest.raises(GraftError, match="history.jsonl:2"):
        load_history(path)


def test_latest_run_is_by_file_order(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history([record("a", run_id="r1"), record("b", run_id="r1")], path)
    append_history([record("a", run_id="r2", wall_ms=3.0)], path)
    run_id, records = latest_run(load_history(path))
    assert run_id == "r2"
    assert set(records) == {"a"}
    assert records["a"]["wall_ms"] == 3.0
    assert latest_run([]) == (None, {})


# -- baseline comparison ---------------------------------------------------


@pytest.fixture()
def baseline(tmp_path):
    records = {"q1": record("q1", wall_ms=10.0, rows=5),
               "q2": record("q2", wall_ms=20.0, rows=0)}
    path = tmp_path / "baseline.json"
    write_baseline(path, records, params={"docs": 100, "scheme": "sumbest"})
    return load_baseline(path)


def test_unchanged_run_passes(baseline):
    current = {"q1": record("q1", wall_ms=10.0, rows=5),
               "q2": record("q2", wall_ms=20.0, rows=0)}
    assert compare_to_baseline(current, baseline) == []


def test_within_tolerance_passes(baseline):
    current = {"q1": record("q1", wall_ms=14.0, rows=5),
               "q2": record("q2", wall_ms=25.0, rows=0)}
    assert compare_to_baseline(current, baseline, max_slowdown=1.5) == []


def test_synthetic_2x_slowdown_fails(baseline):
    current = {"q1": record("q1", wall_ms=20.0, rows=5),
               "q2": record("q2", wall_ms=20.0, rows=0)}
    regressions = compare_to_baseline(current, baseline, max_slowdown=1.5)
    assert [r.name for r in regressions] == ["q1"]
    assert regressions[0].field == "wall_ms"
    assert "1.50x" in regressions[0].message


def test_row_drift_fails_even_when_faster(baseline):
    current = {"q1": record("q1", wall_ms=1.0, rows=4),
               "q2": record("q2", wall_ms=1.0, rows=0)}
    regressions = compare_to_baseline(current, baseline)
    assert [(r.name, r.field) for r in regressions] == [("q1", "rows")]


def test_missing_benchmark_fails_extra_passes(baseline):
    current = {"q1": record("q1", wall_ms=10.0, rows=5),
               "brand_new": record("brand_new")}
    regressions = compare_to_baseline(current, baseline)
    assert [(r.name, r.field) for r in regressions] == [("q2", "missing")]


def test_max_slowdown_below_one_rejected(baseline):
    with pytest.raises(GraftError):
        compare_to_baseline({}, baseline, max_slowdown=0.9)


def test_load_baseline_errors(tmp_path):
    with pytest.raises(GraftError):
        load_baseline(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    with pytest.raises(GraftError):
        load_baseline(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(GraftError, match="benchmarks"):
        load_baseline(empty)


# -- the scaling gate: same records, same verdict, on any machine ----------


def scaling_records(speedup, docs, cores):
    """A serial anchor and a 4-shard process record ``speedup`` apart."""
    def rec(name, wall_ms):
        return bench_record(
            name, run_id="run-a", wall_ms=wall_ms, rows=7,
            params={"docs": docs, "cores": cores},
        )

    return {
        "parallel_qps_s1": rec("parallel_qps_s1", 10.0),
        "parallel_qps_s4_proc": rec("parallel_qps_s4_proc", 10.0 / speedup),
    }


@pytest.mark.parametrize("cores", (1, 2, 64))
def test_scaling_gate_records_below_the_measured_scale(cores):
    # 0.2x at 120 documents is what a 2-core box really measures: the
    # gate must say so and pass, whatever the machine.
    regressions, notes = scaling_gate(scaling_records(0.2, 120, cores))
    assert regressions == []
    assert len(notes) == 1
    assert "recorded, not enforced" in notes[0]
    assert ">= 4000 docs" in notes[0]
    assert "0.20x" in notes[0] and f"{cores} cores" in notes[0]


def test_scaling_gate_records_on_one_core_at_any_scale():
    regressions, notes = scaling_gate(scaling_records(0.3, 4000, 1))
    assert regressions == []
    assert "recorded, not enforced" in notes[0]
    assert ">= 2 cores" in notes[0] and ">= 4000 docs" not in notes[0]


@pytest.mark.parametrize("cores", (2, 64))
def test_scaling_gate_enforces_one_requirement_at_the_measured_scale(cores):
    # No cores -> required-speedup ladder: 1.3x passes and 1.1x fails on
    # 2 cores and on 64 alike.
    regressions, notes = scaling_gate(scaling_records(1.3, 4000, cores))
    assert regressions == []
    assert notes[0].startswith("scaling gate OK")
    regressions, notes = scaling_gate(scaling_records(1.1, 4000, cores))
    assert [r.name for r in regressions] == ["parallel_qps_s4_proc"]
    assert "1.10x" in regressions[0].message
    assert notes[0].startswith("scaling gate FAILED")


def test_scaling_gate_skips_without_records():
    records = scaling_records(2.0, 4000, 2)
    _, notes = scaling_gate({"parallel_qps_s1": records["parallel_qps_s1"]})
    assert "no parallel_qps_s4_proc record" in notes[0]
    _, notes = scaling_gate({})
    assert "no serial anchor" in notes[0]


# -- the CLI gate ----------------------------------------------------------


def bench_cli(tmp_path, *extra):
    return main([
        "bench",
        "--baseline", str(tmp_path / "baseline.json"),
        "--history", str(tmp_path / "history.jsonl"),
        "--docs", "120", "--repeats", "3",
        *extra,
    ])


def test_cli_run_appends_history_and_pins_baseline(tmp_path, capsys):
    assert bench_cli(tmp_path, "--write-baseline") == 0
    out = capsys.readouterr().out
    assert "baseline pinned" in out
    history = load_history(tmp_path / "history.jsonl")
    run_id, records = latest_run(history)
    assert run_id is not None
    # Q4..Q11 plus the sharded-throughput sweep (thread and process
    # legs, and the packed-decode leg), the plan-cache leg, the
    # end-to-end service-load leg, and the telemetry- and
    # span-export-overhead legs.
    assert len(records) == 18
    workload = [n for n in records if n.startswith("workload_Q")]
    assert len(workload) == 8
    assert {n for n in records if not n.startswith("workload_Q")} == {
        "parallel_qps_s1", "parallel_qps_s2", "parallel_qps_s4",
        "parallel_qps_s2_proc", "parallel_qps_s4_proc", "packed_decode",
        "plan_cache_repeat", "service_load", "telemetry_overhead",
        "span_export_overhead",
    }
    # The merge is exact: rows are shard-invariant across the sweep —
    # on both executors and the packed substrate.
    assert len({
        records[n]["rows"]
        for n in ("parallel_qps_s1", "parallel_qps_s2", "parallel_qps_s4",
                  "parallel_qps_s2_proc", "parallel_qps_s4_proc",
                  "packed_decode")
    }) == 1
    assert records["plan_cache_repeat"]["params"]["plan_cache"]["hits"] > 0
    baseline = load_baseline(tmp_path / "baseline.json")
    assert baseline["params"] == {"docs": 120, "scheme": "sumbest"}
    # Each run appends exactly one batch: a second run doubles the file.
    assert bench_cli(tmp_path) == 0
    capsys.readouterr()
    assert len(load_history(tmp_path / "history.jsonl")) == 36


def test_cli_no_parallel_skips_the_sweep(tmp_path, capsys):
    assert bench_cli(tmp_path, "--no-parallel") == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    assert len(records) == 11
    assert set(records) == {
        *(n for n in records if n.startswith("workload_Q")),
        "service_load", "telemetry_overhead", "span_export_overhead",
    }


def test_cli_no_service_skips_the_service_leg(tmp_path, capsys):
    assert bench_cli(tmp_path, "--no-service") == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    assert "service_load" not in records
    assert len(records) == 17


def test_cli_service_leg_records_latency_params(tmp_path, capsys):
    assert bench_cli(tmp_path) == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    leg = records["service_load"]
    assert leg["rows"] > 0
    for key in ("qps", "p50_ms", "p99_ms", "requests", "concurrency"):
        assert key in leg["params"], key
    assert leg["params"]["p50_ms"] <= leg["params"]["p99_ms"]


def test_cli_telemetry_overhead_leg_records_both_medians(tmp_path, capsys):
    assert bench_cli(tmp_path) == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    leg = records["telemetry_overhead"]
    params = leg["params"]
    assert params["off_ms"] > 0 and params["on_ms"] > 0
    assert "overhead_pct" in params
    # The gated wall is the telemetry-OFF median: the zero-overhead
    # contract, not the instrumented path.
    assert leg["wall_ms"] == pytest.approx(params["off_ms"], abs=0.001)
    assert params["rows_on"] == leg["rows"]  # telemetry never changes results


def test_cli_no_telemetry_overhead_skips_the_leg(tmp_path, capsys):
    assert bench_cli(tmp_path, "--no-telemetry-overhead") == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    assert "telemetry_overhead" not in records


def test_cli_span_overhead_leg_gates_the_export_off_path(tmp_path, capsys):
    assert bench_cli(tmp_path) == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    leg = records["span_export_overhead"]
    params = leg["params"]
    assert params["off_ms"] > 0 and params["on_ms"] > 0
    assert "overhead_pct" in params
    # The gated wall is the export-OFF median: telemetry active, no
    # exporter — the normal production path the baseline defends.
    assert leg["wall_ms"] == pytest.approx(params["off_ms"], abs=0.001)
    assert params["rows_on"] == leg["rows"]  # export never changes results
    assert params["traces_exported"] > 0  # the ON pass really exported


def test_cli_no_span_overhead_skips_the_leg(tmp_path, capsys):
    assert bench_cli(tmp_path, "--no-span-overhead") == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    assert "span_export_overhead" not in records
    assert "telemetry_overhead" in records


def test_cli_no_cache_runs_the_cache_leg_cold(tmp_path, capsys):
    assert bench_cli(tmp_path, "--no-cache") == 0
    capsys.readouterr()
    _, records = latest_run(load_history(tmp_path / "history.jsonl"))
    leg = records["plan_cache_repeat"]
    assert leg["params"]["cache"] is False
    assert leg["params"]["plan_cache"]["hits"] == 0
    assert leg["params"]["plan_cache"]["capacity"] == 0


def test_cli_check_passes_on_unchanged_run(tmp_path, capsys):
    assert bench_cli(tmp_path, "--write-baseline") == 0
    capsys.readouterr()
    # Generous tolerance: wall noise must not flake this test; rows are
    # deterministic and exact.
    assert bench_cli(tmp_path, "--check", "--max-slowdown", "50") == 0
    assert "gate OK" in capsys.readouterr().out


def test_cli_check_fails_on_synthetic_slowdown(tmp_path, capsys):
    assert bench_cli(tmp_path, "--write-baseline") == 0
    capsys.readouterr()
    path = tmp_path / "baseline.json"
    baseline = json.loads(path.read_text())
    for rec in baseline["benchmarks"].values():
        if rec["wall_ms"]:
            rec["wall_ms"] /= 1000.0  # pretend the past was 1000x faster
    path.write_text(json.dumps(baseline))
    assert bench_cli(tmp_path, "--check", "--max-slowdown", "2") == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "wall_ms" not in err  # message is prose


def test_cli_check_fails_on_row_drift(tmp_path, capsys):
    assert bench_cli(tmp_path, "--write-baseline") == 0
    capsys.readouterr()
    path = tmp_path / "baseline.json"
    baseline = json.loads(path.read_text())
    name = sorted(baseline["benchmarks"])[0]
    baseline["benchmarks"][name]["rows"] += 1
    path.write_text(json.dumps(baseline))
    assert bench_cli(tmp_path, "--check", "--max-slowdown", "50") == 1
    assert "result/work count changed" in capsys.readouterr().err


def test_cli_check_json_payload(tmp_path, capsys):
    assert bench_cli(tmp_path, "--write-baseline") == 0
    capsys.readouterr()
    assert bench_cli(
        tmp_path, "--check", "--max-slowdown", "50", "--json"
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked"] is True
    assert payload["regressions"] == []
    assert len(payload["records"]) == 18
    for rec in payload["records"].values():
        assert rec["schema"] == 1
        assert rec["run_id"] == payload["run_id"]
