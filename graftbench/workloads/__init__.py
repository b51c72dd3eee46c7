"""The five workloads: ``name -> (prepare, run)``.

``prepare(cfg)`` builds a workload's inputs and reference answers (what
``golden.json`` pins); ``run(cfg)`` measures it and returns a
:class:`graftbench.harness.RunResult`.
"""

from graftbench.workloads import engine, ingest, parallel, serve

WORKLOADS = {
    "warm_engine": (engine.prepare_warm, engine.run_warm),
    "cold_plans": (engine.prepare_cold, engine.run_cold),
    "serve_small": (serve.prepare, serve.run),
    "parallel_scan": (parallel.prepare, parallel.run),
    "ingest_reopen": (ingest.prepare, ingest.run),
}
