"""Benchmark support: the paper's workload, methodology, reporting, and
the stable record schema of ``BENCH_*.json``."""

from repro.bench.history import bench_record, new_run_id
from repro.bench.measure import paper_statistic
from repro.bench.workload import (
    PAPER_QUERIES,
    BenchFixture,
    bench_fixture,
    default_corpus_config,
)

__all__ = [
    "PAPER_QUERIES",
    "BenchFixture",
    "bench_fixture",
    "default_corpus_config",
    "paper_statistic",
    "bench_record",
    "new_run_id",
]
