"""Smoke tests of the benchmark itself (``pytest graftbench/tests``; not
part of the tier-1 suite).  Everything runs at 1/50 scale."""

from __future__ import annotations

import ctypes
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from graftbench import OUT_DIR, ROOT, check, system
from graftbench.__main__ import main
from graftbench.harness import RunConfig
from graftbench.workloads import WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]
SCALE = 0.02


def _run(capsys, *args: str) -> dict:
    assert main(["run", "--scale", str(SCALE), "--seconds", "0.3", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_names_are_well_formed():
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert set(NAMES) == set(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in DECLARED["end_to_end"])


def test_every_workload_emits_exactly_the_end_to_end_metrics(capsys):
    started = time.perf_counter()
    for name in NAMES:
        out = _run(capsys, "--workload", name)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert list(out["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
        assert all(entry["value"] > 0 for entry in out["metrics"].values())
    assert time.perf_counter() - started < 20.0


@pytest.mark.parametrize("name, hit_ratio", [("warm_engine", 1.0), ("cold_plans", 0.0)])
def test_cache_workloads_stress_what_they_say(capsys, name, hit_ratio):
    out = _run(capsys, "--workload", name, "--trace", "1")
    assert list(out["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    assert out["metrics"]["exec.cache.plan_hit_ratio"]["value"] == hit_ratio
    assert out["metrics"]["failed_share"]["value"] == 0.0
    coverage = out["metrics"]["trace.self_time_coverage"]["value"]
    assert 0.9 <= coverage <= 1.0
    assert (OUT_DIR / f"trace_{name}.jsonl").exists()


@pytest.mark.parametrize("name", ["warm_engine", "ingest_reopen"])
def test_a_corrupted_reference_raises_the_failed_count(name):
    cfg = RunConfig(seconds=0.2, scale=SCALE, corrupt_reference=True)
    result = WORKLOADS[name][1](cfg)
    assert result.failed > 0


def test_tied_scores_may_swap_ranks_and_nothing_else_may():
    want = ((7, 3, 5, 9), (0.5, 0.25, 0.25 * (1 + 1e-12), 0.125))
    assert check.same_answer(((7, 5, 3, 9), (0.5, 0.25, 0.25, 0.125)), want)
    assert not check.same_answer(((3, 7, 5, 9), want[1]), want)  # no tie there
    assert not check.same_answer(((7, 3, 4, 9), want[1]), want)  # another doc
    assert not check.same_answer(((7, 3, 3, 9), want[1]), want)  # twice
    assert not check.same_answer(((7, 3, 5, 9), (0.5, 0.25, 0.26, 0.125)), want)
    assert not check.same_answer(((7, 3, 5), want[1][:3]), want)
    # Only an answer cut off at TOP_K may end on other documents of the
    # last score.
    ids = tuple(range(check.TOP_K))
    full = (ids, (1.0,) * check.TOP_K)
    assert check.same_answer((ids[:-1] + (99,), full[1]), full)
    assert not check.same_answer((ids[:-1] + (99,), full[1][:-1] + (0.9,)), full)


def _terminate_mid_run(workload: str, ready) -> None:
    """Start a long run, wait until ``ready(proc)``, SIGTERM it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "graftbench", "run", "--workload", workload,
         "--scale", "0.05", "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not ready(proc):
            assert proc.poll() is None, "run ended before it could be killed"
            assert time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM


def test_killed_serve_run_leaves_no_server():
    servers: list[int] = []

    def ready(proc) -> bool:
        servers[:] = system.child_pids(proc.pid)
        return bool(servers)

    _terminate_mid_run("serve_small", ready)
    # The dying run passed the signal on and waited for the server's drain.
    assert not any(os.path.exists(f"/proc/{pid}") for pid in servers)
    assert not list(OUT_DIR.glob("tmp-*"))


def test_killed_parallel_run_leaves_no_shared_memory():
    before = system.shm_segments()
    _terminate_mid_run(
        "parallel_scan", lambda proc: bool(system.shm_segments() - before)
    )
    # The dying run waited for its workers and for multiprocessing's
    # resource tracker, which unlinks the segment before it ends.
    assert system.shm_segments() <= before


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_finished_parallel_run_leaves_no_process(trace):
    # As a sub-reaper (PR_SET_CHILD_SUBREAPER = 36), this process and not
    # init becomes the parent of whatever outlives the run.
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    before = set(system.child_pids())
    subprocess.run(
        [sys.executable, "-m", "graftbench", "run", "--workload", "parallel_scan",
         "--scale", str(SCALE), "--seconds", "0.3", "--trace", trace],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    assert set(system.child_pids()) <= before
