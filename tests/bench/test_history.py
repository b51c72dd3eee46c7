"""Benchmark records: the stable schema of ``BENCH_*.json`` and run ids."""

from __future__ import annotations

import pytest

from repro.bench.history import bench_record, new_run_id
from repro.errors import GraftError


def record(name, wall_ms=10.0, rows=5, run_id="run-a"):
    return bench_record(
        name, run_id=run_id, wall_ms=wall_ms, rows=rows,
        params={"docs": 100},
    )


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
