"""Shared benchmark infrastructure.

Benchmarks regenerate every table and figure of the paper's evaluation
(Section 8).  Each module both:

* registers pytest-benchmark timings (9 rounds, reduced by
  :func:`median_seconds` to the paper's average of the five median
  times), and
* writes the regenerated artifact as text to ``benchmarks/results/`` so
  the harness output can be laid next to the published table or plot.

Every benchmark run shares one :data:`RUN_ID`.  At session end the
``pytest_sessionfinish`` hook exports each module's timings as
``BENCH_<module>.json`` in the stable record schema
(``repro.bench.history.bench_record``: name, params, wall_ms, rows).

These modules measure; they gate nothing.  Wall clock is judged by
``python -m graftbench compare`` and the paper workload's work counters
by ``tests/bench/test_counters.py``.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench.history import bench_record, new_run_id
from repro.bench.measure import paper_statistic
from repro.bench.workload import bench_fixture
from repro.exec.engine import execute, make_runtime
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.sa.registry import get_scheme

#: Benchmark corpus size (documents).  The paper used 5.2M Wikipedia
#: documents on a JVM; this laptop-scale stand-in preserves the postings
#: skew that drives the optimizations' relative payoffs.  Override with
#: ``REPRO_BENCH_DOCS`` for smoke runs (CI uses a small value).
BENCH_DOCS = int(os.environ.get("REPRO_BENCH_DOCS", "4000"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One id per benchmark session; every record this run writes carries it.
RUN_ID = new_run_id()


@pytest.fixture(scope="session")
def fx():
    return bench_fixture(num_docs=BENCH_DOCS)


def make_runner(fx, query, scheme_name, options: OptimizerOptions | None = None):
    """An argless callable executing the optimized plan for timing.

    Optimization happens once, outside the timed region, matching the
    paper's measurement of execution (plans are listed, then run).  After
    every call ``run.rows`` holds the result count — the
    machine-independent signal the history schema records."""
    scheme = get_scheme(scheme_name)
    result = Optimizer(scheme, fx.index, options).optimize(query)

    def run():
        runtime = make_runtime(fx.index, scheme, result.info)
        ranked = execute(result.plan, runtime)
        run.rows = len(ranked)
        return ranked

    run.rows = None
    return run


def record_rows(benchmark, runner) -> None:
    """Stash a runner's result count on the benchmark so the session
    exporter can join it into the stable record schema."""
    benchmark.extra_info["rows"] = getattr(runner, "rows", None)


def write_artifact(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def median_seconds(benchmark) -> float:
    """The paper's statistic over the benchmark's rounds: the mean of the
    five median times (:func:`repro.bench.measure.paper_statistic`)."""
    return paper_statistic(benchmark.stats.stats.sorted_data)


def write_bench_json(
    name: str,
    payload: dict,
    *,
    wall_ms: float | None = None,
    rows: int | None = None,
    params: dict | None = None,
) -> pathlib.Path:
    """Write a machine-readable benchmark artifact as ``BENCH_<name>.json``.

    The file is one stable-schema record
    (:func:`repro.bench.history.bench_record`: schema/run_id/name/params/
    wall_ms/rows) with the benchmark's free-form headline numbers — and
    typically a metrics-registry snapshot
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) — nested under
    ``data``.
    """
    record = bench_record(
        name, run_id=RUN_ID, wall_ms=wall_ms, rows=rows, params=params
    )
    record["data"] = payload
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[bench json written to {path}]")
    return path


def _benchmark_seconds(meta) -> float | None:
    """:func:`median_seconds`' statistic from a pytest-benchmark metadata
    object, tolerating both attribute layouts (fixture vs session
    metadata)."""
    stats = getattr(meta, "stats", None)
    stats = getattr(stats, "stats", stats)
    times = getattr(stats, "sorted_data", None)
    # A benchmark that failed mid-round leaves empty stats; exporting
    # must not take the rest of the session's records down with it.
    if not times:
        return None
    return paper_statistic(times)


def pytest_sessionfinish(session, exitstatus):
    """Export every timed benchmark in the stable history schema.

    One ``BENCH_<module>.json`` per benchmark module, containing one
    record per test (name, params, wall_ms, rows) under this session's
    :data:`RUN_ID`.  This is what makes "every benchmark writes its
    numbers machine-readably" true without each module hand-rolling an
    export.  Its ``wall_ms`` is the same statistic as
    :func:`median_seconds`.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", ()):
        return
    by_module: dict[str, list[dict]] = {}
    for meta in bench_session.benchmarks:
        seconds = _benchmark_seconds(meta)
        if seconds is None:
            continue
        fullname = getattr(meta, "fullname", "") or ""
        module = pathlib.Path(fullname.split("::", 1)[0]).stem or "unknown"
        extra = dict(getattr(meta, "extra_info", {}) or {})
        rows = extra.pop("rows", None)
        params = dict(getattr(meta, "params", None) or {})
        if extra:
            params["extra"] = extra
        params["docs"] = BENCH_DOCS
        by_module.setdefault(module, []).append(bench_record(
            getattr(meta, "name", fullname) or fullname,
            run_id=RUN_ID,
            wall_ms=seconds * 1000.0,
            rows=rows,
            params=params,
        ))
    if not by_module:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    for module, records in sorted(by_module.items()):
        path = RESULTS_DIR / f"BENCH_{module}.json"
        path.write_text(json.dumps(
            {"schema": 1, "run_id": RUN_ID, "records": records},
            indent=2, sort_keys=True,
        ) + "\n")
