"""``python -m graftbench compare A.json B.json``.

For every workload × end-to-end metric: each side's median and quartiles,
B's median as a ratio of A's (the base is printed), and a verdict.

* ``unresolved`` — either side's spread (inter-quartile distance over the
  median) is wider than the metric's bound; never reported as ``same``.
* ``worse`` — B's median is worse than A's by more than the bound.
* ``better`` — B's median is better than A's by more than A's own spread.
* ``same`` — otherwise.

Exit status 1 on any ``worse`` or any rise in a workload's failed share.
"""

from __future__ import annotations

import json

from graftbench import ROOT, stats


def _load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a ``run --out`` file, by workload."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    a_med, b_med = stats.median(a), stats.median(b)
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved"
    worse_by = (b_med - a_med) / a_med * (1.0 if better == "lower" else -1.0)
    if worse_by > bound:
        return "worse"
    if -worse_by > stats.spread(a):
        return "better"
    return "same"


def compare_files(path_a: str, path_b: str) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    side_a, side_b = _load(path_a), _load(path_b)
    bad = False
    for workload in (w["name"] for w in declared["workloads"]):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            print(f"{workload}: missing from one side")
            continue
        print(f"{workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        for spec in declared["end_to_end"]:
            name = spec["name"]
            a = [run["metrics"][name]["value"] for run in runs_a]
            b = [run["metrics"][name]["value"] for run in runs_b]
            (a1, a2, a3), (b1, b2, b3) = stats.quartiles(a), stats.quartiles(b)
            result = verdict(a, b, spec["bound"], spec["better"])
            bad |= result == "worse"
            print(
                f"  {name:12s} A {a2:10.4f} [{a1:.4f} .. {a3:.4f}]  "
                f"B {b2:10.4f} [{b1:.4f} .. {b3:.4f}] {spec['unit']:4s} "
                f"B/A {b2 / a2:.3f} (base A median {a2:.4f})  "
                f"bound {spec['bound']:.2f}  {result}"
            )
        share_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        share_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        rose = share_b > share_a
        bad |= rose
        print(f"  failed_share A {share_a:.6f}  B {share_b:.6f}  "
              f"{'ROSE' if rose else 'no rise'}")
    return 1 if bad else 0
