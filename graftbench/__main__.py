"""``python -m graftbench run|compare`` — see README.md in this directory."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from graftbench import DEFAULT_SEED, ROOT


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m graftbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", default=None,
                     help="one workload (default: all, in declared order)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed section per run (default: run_seconds "
                          "of BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     help="1: the traced run that prints per-layer metrics")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, on seeds seed, seed+1, ...")
    run.add_argument("--reverse", action="store_true",
                     help="run the workloads in reverse declared order")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink corpus sizes and counts (smoke tests)")
    run.add_argument("--out", default=None,
                     help="also write every run's result to this JSON file")
    run.add_argument("--write-golden", action="store_true",
                     help="regenerate golden.json from the default seed")
    compare = sub.add_parser(
        "compare", help="compare two --out files metric by metric")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def _run_one(name: str, cfg, declared: dict) -> dict:
    """Run one workload; the contract's result object."""
    from graftbench.workloads import WORKLOADS

    started = time.perf_counter()
    result = WORKLOADS[name][1](cfg)
    group = "per_layer" if cfg.trace else "end_to_end"
    metrics = {}
    for spec in declared[group]:
        if spec["name"] == "failed_share":
            value = result.failed / result.attempted
        elif cfg.trace:
            # A layer this workload does not exercise did no work in it.
            value = result.metrics.get(spec["name"], 0.0)
        else:
            value = result.metrics[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    unknown = set(result.metrics) - set(metrics)
    if unknown:
        raise SystemExit(f"{name} measured undeclared metrics: {sorted(unknown)}")
    result.notes["run_wall_s"] = time.perf_counter() - started
    print(f"# {name} seed={cfg.seed} trace={int(cfg.trace)} "
          f"notes={json.dumps(result.notes, sort_keys=True)}")
    for metric, entry in metrics.items():
        print(f"{name:14s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _cmd_run(args) -> int:
    from graftbench import golden, system
    from graftbench.harness import RunConfig, scratch_dir
    from graftbench.workloads import WORKLOADS

    system.sigterm_stops_children(scratch_dir())
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    if args.reverse:
        names.reverse()
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]

    if args.write_golden:
        cfg = RunConfig(seed=DEFAULT_SEED)
        golden.write({n: golden.entry(n, WORKLOADS[n][0](cfg)) for n in names})
        print(f"wrote {golden.GOLDEN_PATH}")
        return 0

    plan = [(name, args.seed + repeat)
            for repeat in range(args.repeat) for name in names]
    if len(plan) == 1:
        cfg = RunConfig(seed=args.seed, seconds=seconds,
                        trace=bool(args.trace), scale=args.scale)
        try:
            outcome = _run_one(names[0], cfg, declared)
        finally:
            # The pool's workers end asynchronously after the engine is
            # closed, the resource tracker only once they have: the result
            # line is printed when every process the run started is gone.
            system.stop_children()
        print(json.dumps(outcome))
        return 0

    # Several runs: one fresh process each, as the driver runs them, so
    # that no run inherits another's heap or peak RSS.
    runs = []
    for name, seed in plan:
        done = subprocess.run(
            [sys.executable, "-m", "graftbench", "run", "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        sys.stdout.write(done.stdout)
        runs.append({"workload": name, "seed": seed, "trace": args.trace,
                     **json.loads(done.stdout.strip().splitlines()[-1])})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs, "claim": None}, handle, indent=1)
    print(json.dumps({"runs": len(runs), "failed": sum(r["failed"] for r in runs),
                      "claim": None}))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    from graftbench.compare import compare_files

    return compare_files(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
