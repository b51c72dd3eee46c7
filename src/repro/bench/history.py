"""Benchmark records: run ids and the stable record schema.

Every ``benchmarks/`` session shares one *run id*, and each benchmark's
headline numbers are written as one record in a fixed schema
(``BENCH_*.json``), so the records of one run are joinable by
(``run_id``, ``name``).  Nothing here judges a run: wall clock is judged
by ``graftbench compare`` and work by ``tests/bench/test_counters.py``.
"""

from __future__ import annotations

import os
import secrets
import time

from repro.errors import GraftError

#: Record schema version for BENCH_*.json entries.
BENCH_SCHEMA_VERSION = 1


def new_run_id() -> str:
    """A sortable, collision-resistant id shared by one run's records."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{secrets.token_hex(3)}"


def bench_record(
    name: str,
    *,
    run_id: str,
    wall_ms: float | None = None,
    rows: int | None = None,
    params: dict | None = None,
) -> dict:
    """One benchmark's headline record in the stable schema.

    ``name`` identifies the benchmark, ``params`` its configuration
    (corpus size, query, scheme, ...), ``wall_ms`` the headline wall
    time and ``rows`` a machine-independent result/work count.
    Records sharing a ``run_id`` came from the same benchmark run.
    """
    if not name:
        raise GraftError("benchmark record needs a non-empty name")
    if not run_id:
        raise GraftError("benchmark record needs a run id")
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "run_id": run_id,
        "name": name,
        "params": dict(params or {}),
        "wall_ms": wall_ms,
        "rows": rows,
        "ts": time.time(),
    }
