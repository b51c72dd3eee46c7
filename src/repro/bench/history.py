"""Benchmark trajectory: run ids, ``history.jsonl``, and the regression
gate.

Benchmarks that only print numbers cannot tell you when they got worse.
This module gives every benchmark run a shared *run id*, appends each
benchmark's headline record to an append-only ``history.jsonl`` (so
trajectories are joinable across runs and commits), and compares a run
against a checked-in baseline with an explicit noise model:

* ``wall_ms`` regresses when it exceeds the baseline by more than
  ``max_slowdown`` (a ratio — wall time is machine- and load-dependent,
  so the tolerance is deliberately coarse and configurable);
* ``rows`` (the machine-independent work/result count) must match the
  baseline exactly — an algorithmic regression shows up here even on a
  10x faster machine.

``repro bench`` runs the paper workload through this module;
``repro bench --check`` exits non-zero on any regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import secrets
import time
from dataclasses import dataclass

from repro.errors import GraftError

#: Record schema version for BENCH_*.json and history.jsonl entries.
BENCH_SCHEMA_VERSION = 1

#: Default wall-time regression tolerance (ratio to baseline).
DEFAULT_MAX_SLOWDOWN = 1.5


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
    """One benchmark's headline record in the stable history schema.

    ``name`` identifies the benchmark, ``params`` its configuration
    (corpus size, query, scheme, ...), ``wall_ms`` the headline median
    wall time and ``rows`` a machine-independent result/work count.
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


def append_history(records, path) -> pathlib.Path:
    """Append record(s) to the JSONL history file (created if missing)."""
    if isinstance(records, dict):
        records = [records]
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(path) -> list[dict]:
    """All history records, oldest first; malformed lines are named."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    out: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraftError(
                    f"{path}:{lineno}: malformed history record: {exc}"
                ) from None
            out.append(record)
    return out


def latest_run(history: list[dict]) -> tuple[str | None, dict[str, dict]]:
    """The most recent run id and its records, keyed by benchmark name.

    "Most recent" is by file order (history is append-only), so clock
    skew between machines cannot reorder runs.
    """
    if not history:
        return None, {}
    run_id = history[-1].get("run_id")
    return run_id, {
        rec["name"]: rec
        for rec in history
        if rec.get("run_id") == run_id and "name" in rec
    }


# -- baseline comparison ----------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One detected benchmark regression."""

    name: str
    field: str          # "wall_ms" | "rows" | "missing"
    baseline: float | None
    current: float | None
    message: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "baseline": self.baseline,
            "current": self.current,
            "message": self.message,
        }


def write_baseline(path, records: dict[str, dict], *, params: dict | None = None) -> pathlib.Path:
    """Pin a run as the checked-in baseline."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "params": dict(params or {}),
        "benchmarks": {
            name: {
                "wall_ms": rec.get("wall_ms"),
                "rows": rec.get("rows"),
                "params": rec.get("params", {}),
            }
            for name, rec in sorted(records.items())
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path) -> dict:
    path = pathlib.Path(path)
    if not path.exists():
        raise GraftError(f"no benchmark baseline at {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GraftError(f"{path}: malformed baseline: {exc}") from None
    if "benchmarks" not in payload or not isinstance(payload["benchmarks"], dict):
        raise GraftError(f"{path}: baseline has no 'benchmarks' table")
    return payload


#: What the process pool must beat the serial anchor by, wherever the
#: claim is enforced at all.
REQUIRED_PROC_SPEEDUP = 1.2
#: The one scale where "worker processes beat serial" has been measured
#: (graftbench ``parallel_scan``: 1.5x at 4 000 documents on 2 cores).
#: Below it dispatch outweighs per-shard work — 0.2x at 120 documents —
#: and enforcing the claim would make the verdict depend on the machine.
SCALING_MIN_DOCS = 4000
SCALING_MIN_CORES = 2


def scaling_gate(
    records: dict[str, dict],
) -> tuple[list[Regression], list[str]]:
    """Judge process-parallel scaling against the serial anchor.

    ``parallel_qps_s4_proc`` must beat ``parallel_qps_s1`` by
    :data:`REQUIRED_PROC_SPEEDUP` — enforced only when the record
    declares a corpus of at least :data:`SCALING_MIN_DOCS` documents
    and at least :data:`SCALING_MIN_CORES` schedulable cores.  Anywhere
    else the measured ratio is *recorded* in the returned notes with
    the reason, and the gate passes (the repo's standing rule: record
    the honest number next to ``docs`` and ``cores``, never a gamed
    one) — so the same records give the same verdict on any machine.

    Returns ``(regressions, notes)``; notes always state what was
    checked or why it was skipped, so a passing gate is auditable.
    """
    serial = records.get("parallel_qps_s1")
    proc = records.get("parallel_qps_s4_proc")
    if serial is None or not serial.get("wall_ms"):
        return [], ["scaling gate skipped: no serial anchor record"]
    if proc is None or not proc.get("wall_ms"):
        return [], [
            "scaling gate skipped: no parallel_qps_s4_proc record "
            "(process pool unavailable on this platform)"
        ]
    params = proc.get("params", {})
    docs = params.get("docs") or 0
    cores = params.get("cores") or 1
    speedup = serial["wall_ms"] / proc["wall_ms"]
    measured = (
        f"process speedup at 4 shards = {speedup:.2f}x vs serial "
        f"({docs} docs, {cores} cores)"
    )
    reasons = []
    if docs < SCALING_MIN_DOCS:
        reasons.append(
            f"the claim is measured at >= {SCALING_MIN_DOCS} docs"
        )
    if cores < SCALING_MIN_CORES:
        reasons.append(f"it needs >= {SCALING_MIN_CORES} cores")
    if reasons:
        return [], [
            f"scaling gate recorded, not enforced "
            f"({'; '.join(reasons)}): {measured}"
        ]
    if speedup < REQUIRED_PROC_SPEEDUP:
        return (
            [Regression(
                "parallel_qps_s4_proc", "wall_ms",
                serial["wall_ms"], proc["wall_ms"],
                f"parallel_qps_s4_proc: {measured} is below the required "
                f"{REQUIRED_PROC_SPEEDUP:.2f}x",
            )],
            [f"scaling gate FAILED: {measured} < "
             f"{REQUIRED_PROC_SPEEDUP:.2f}x"],
        )
    return [], [
        f"scaling gate OK: {measured} >= {REQUIRED_PROC_SPEEDUP:.2f}x"
    ]


def compare_to_baseline(
    current: dict[str, dict],
    baseline: dict,
    *,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> list[Regression]:
    """Diff a run against a baseline; an empty list means the gate passes.

    Every baseline benchmark must be present in ``current``; extra
    current benchmarks (newly added) pass silently — they join the gate
    when the baseline is re-pinned.
    """
    if max_slowdown < 1.0:
        raise GraftError(
            f"max_slowdown is a ratio >= 1.0, got {max_slowdown!r}"
        )
    regressions: list[Regression] = []
    for name, base in sorted(baseline["benchmarks"].items()):
        got = current.get(name)
        if got is None:
            regressions.append(Regression(
                name, "missing", None, None,
                f"{name}: present in baseline but absent from this run",
            ))
            continue
        base_wall, got_wall = base.get("wall_ms"), got.get("wall_ms")
        if base_wall and got_wall and got_wall > base_wall * max_slowdown:
            regressions.append(Regression(
                name, "wall_ms", base_wall, got_wall,
                f"{name}: wall time {got_wall:.3f} ms exceeds baseline "
                f"{base_wall:.3f} ms by more than {max_slowdown:.2f}x "
                f"({got_wall / base_wall:.2f}x)",
            ))
        base_rows, got_rows = base.get("rows"), got.get("rows")
        if base_rows is not None and got_rows is not None \
                and got_rows != base_rows:
            regressions.append(Regression(
                name, "rows", base_rows, got_rows,
                f"{name}: result/work count changed from {base_rows} to "
                f"{got_rows} (machine-independent; check correctness "
                f"before re-pinning the baseline)",
            ))
    return regressions
