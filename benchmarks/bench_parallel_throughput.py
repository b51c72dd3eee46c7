"""Sharded-execution throughput and the two-tier query cache's payoff.

Four claims are measured over the paper's eight evaluation queries:

* **In-process shards give the serial rows** — one pass over the whole
  workload executed unsharded and through
  :func:`repro.exec.parallel.execute_sharded` (the shards one after
  another in this process) at 2 and 4 shards.  The result *rows* must
  be identical at every shard count (the score-consistent merge is
  exact, not approximate), so the exported records double as a
  correctness gate.  The wall time is the serial reference for the
  process rows below, not a speedup claim.

* **Process-sharded throughput** — the same pass through
  :func:`repro.exec.procpool.execute_sharded_process`: the packed index
  published once in shared memory, one attach per worker process, each
  shard on its own core where the machine has them; rows must again be
  identical.  Speedup is reported next to ``os.cpu_count()``.

* **Packed decode** — the serial workload over the
  :class:`repro.index.packed.PackedIndex` decoding view, pinning the
  batch-decode scan path next to the object-index serial anchor.

* **Plan-cache repeat** — the same workload through a
  :class:`repro.api.SearchEngine` twice, cold then warm.  The warm pass
  must hit the plan cache on every query (hits are asserted via the
  engine's cache stats, which back the
  ``graft_plan_cache_hits_total`` metric) and skips
  parse→canonicalize→optimize entirely.
"""

import os

import pytest

from repro.api import SearchEngine
from repro.bench.reporting import render_table
from repro.bench.workload import PAPER_QUERIES
from repro.exec.cache import CacheConfig
from repro.exec.engine import execute, make_runtime
from repro.exec.parallel import execute_sharded
from repro.exec.procpool import (
    ProcessShardPool,
    ProcPoolUnavailableError,
    default_worker_count,
    execute_sharded_process,
)
from repro.graft.optimizer import Optimizer
from repro.index.packed import PackedIndex, pack_index
from repro.index.shard import ShardedIndex
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from benchmarks.conftest import median_seconds, write_artifact, write_bench_json

SCHEME = "sumbest"

SHARD_COUNTS = (1, 2, 4)
PROC_SHARD_COUNTS = (2, 4)

MEASURED: dict[int, float] = {}
ROWS: dict[int, int] = {}
MEASURED_PROC: dict[int, float] = {}
ROWS_PROC: dict[int, int] = {}
PACKED: dict[str, float | int] = {}
CACHE: dict[str, float | dict] = {}


def _optimized(fx):
    scheme = get_scheme(SCHEME)
    return scheme, [
        Optimizer(scheme, fx.index).optimize(query)
        for query in fx.queries.values()
    ]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_parallel_measure(shards, benchmark, fx):
    scheme, optimized = _optimized(fx)
    ctx = IndexScoringContext(fx.index)
    sharded = ShardedIndex(fx.index, shards) if shards > 1 else None

    def run():
        total = 0
        for result in optimized:
            if sharded is None:
                runtime = make_runtime(fx.index, scheme, result.info, ctx)
                total += len(execute(result.plan, runtime))
            else:
                total += len(execute_sharded(
                    sharded, result.plan, scheme, result.info, ctx
                ).results)
        run.rows = total

    run.rows = None
    benchmark.pedantic(run, rounds=9, iterations=1, warmup_rounds=1)
    benchmark.extra_info["rows"] = run.rows
    MEASURED[shards] = median_seconds(benchmark)
    ROWS[shards] = run.rows


@pytest.mark.parametrize("shards", PROC_SHARD_COUNTS)
def test_process_measure(shards, benchmark, fx):
    scheme, optimized = _optimized(fx)
    try:
        pool = ProcessShardPool(
            pack_index(fx.index), shards,
            max_workers=default_worker_count(shards),
        )
    except ProcPoolUnavailableError as exc:
        pytest.skip(f"process pool unavailable: {exc}")
    sharded = ShardedIndex(fx.index, shards)

    def run():
        total = 0
        for result in optimized:
            total += len(execute_sharded_process(
                pool, sharded, result.plan, scheme, result.info
            ).results)
        run.rows = total

    run.rows = None
    try:
        benchmark.pedantic(run, rounds=9, iterations=1, warmup_rounds=1)
    finally:
        pool.close()
    benchmark.extra_info["rows"] = run.rows
    MEASURED_PROC[shards] = median_seconds(benchmark)
    ROWS_PROC[shards] = run.rows


def test_packed_decode(benchmark, fx):
    scheme, optimized = _optimized(fx)
    packed = PackedIndex(pack_index(fx.index))
    ctx = IndexScoringContext(packed)

    def run():
        total = 0
        for result in optimized:
            runtime = make_runtime(packed, scheme, result.info, ctx)
            total += len(execute(result.plan, runtime))
        run.rows = total

    run.rows = None
    benchmark.pedantic(run, rounds=9, iterations=1, warmup_rounds=1)
    benchmark.extra_info["rows"] = run.rows
    PACKED["seconds"] = median_seconds(benchmark)
    PACKED["rows"] = run.rows


def test_plan_cache_repeat(benchmark, fx):
    engine = SearchEngine(fx.collection, cache=CacheConfig())
    engine._index = fx.index  # reuse the session fixture's index

    def run():
        total = 0
        for text in PAPER_QUERIES.values():
            total += len(engine.search(text, scheme=SCHEME))
        run.rows = total

    run.rows = None
    run()  # cold pass: every query is a plan-cache miss
    cold = dict(engine.cache_stats()["plan"])
    benchmark.pedantic(run, rounds=9, iterations=1, warmup_rounds=1)
    benchmark.extra_info["rows"] = run.rows
    warm = dict(engine.cache_stats()["plan"])
    CACHE["warm_seconds"] = median_seconds(benchmark)
    CACHE["rows"] = run.rows
    CACHE["stats"] = warm
    # Every query text repeats, so the timed passes must be all hits:
    # misses stop after the cold pass, hits keep climbing.
    assert warm["misses"] == cold["misses"] == len(PAPER_QUERIES)
    assert warm["hits"] > cold["hits"] >= 0


def test_parallel_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if set(MEASURED) != set(SHARD_COUNTS) or "warm_seconds" not in CACHE:
        pytest.skip("measurements missing (run the whole module)")

    # The merge is exact: every shard count — and both executors, and
    # the packed substrate — must agree on total rows.
    agreed = set(ROWS.values()) | set(ROWS_PROC.values())
    if "rows" in PACKED:
        agreed.add(PACKED["rows"])
    assert len(agreed) == 1, (ROWS, ROWS_PROC, PACKED)

    serial = MEASURED[1]
    table_rows = [
        [
            f"{n} shards (in-process)" if n > 1 else "1 shard (serial)",
            f"{MEASURED[n] * 1000:.3f} ms",
            f"{len(PAPER_QUERIES) / MEASURED[n]:.1f} q/s",
            f"{serial / MEASURED[n]:.2f}x",
        ]
        for n in SHARD_COUNTS
    ]
    for n in sorted(MEASURED_PROC):
        table_rows.append([
            f"{n} shards (process)",
            f"{MEASURED_PROC[n] * 1000:.3f} ms",
            f"{len(PAPER_QUERIES) / MEASURED_PROC[n]:.1f} q/s",
            f"{serial / MEASURED_PROC[n]:.2f}x",
        ])
    if "seconds" in PACKED:
        table_rows.append([
            "serial (packed index)",
            f"{PACKED['seconds'] * 1000:.3f} ms",
            f"{len(PAPER_QUERIES) / PACKED['seconds']:.1f} q/s",
            f"{serial / PACKED['seconds']:.2f}x",
        ])
    table_rows.append([
        "plan-cache warm",
        f"{CACHE['warm_seconds'] * 1000:.3f} ms",
        f"{len(PAPER_QUERIES) / CACHE['warm_seconds']:.1f} q/s",
        f"{serial / CACHE['warm_seconds']:.2f}x",
    ])
    text = render_table(
        ["configuration", "median pass", "throughput", "vs serial"],
        table_rows,
        title=(
            f"Paper workload throughput, sharded execution + plan cache "
            f"({os.cpu_count()} cores)"
        ),
    )
    write_artifact("parallel_throughput.txt", text)
    write_bench_json(
        "parallel_throughput",
        {
            "median_ms": {f"s{n}": MEASURED[n] * 1000 for n in SHARD_COUNTS},
            "qps": {
                f"s{n}": len(PAPER_QUERIES) / MEASURED[n]
                for n in SHARD_COUNTS
            },
            "speedup_vs_serial": {
                f"s{n}": serial / MEASURED[n] for n in SHARD_COUNTS
            },
            "process": {
                f"s{n}": {
                    "median_ms": MEASURED_PROC[n] * 1000,
                    "qps": len(PAPER_QUERIES) / MEASURED_PROC[n],
                    "speedup_vs_serial": serial / MEASURED_PROC[n],
                }
                for n in sorted(MEASURED_PROC)
            },
            "packed_decode": (
                {
                    "median_ms": PACKED["seconds"] * 1000,
                    "speedup_vs_serial": serial / PACKED["seconds"],
                }
                if "seconds" in PACKED else None
            ),
            "plan_cache": {
                "warm_ms": CACHE["warm_seconds"] * 1000,
                "speedup_vs_serial": serial / CACHE["warm_seconds"],
                "stats": CACHE["stats"],
            },
            "cores": os.cpu_count(),
        },
        wall_ms=MEASURED[max(SHARD_COUNTS)] * 1000,
        rows=ROWS[1],
        params={"scheme": SCHEME, "shard_counts": list(SHARD_COUNTS)},
    )
