"""The traced run of the in-process search workloads.

Each request is a root span holding a plain ``SearchEngine.search`` and
the same query driven stage by stage through the layers' public functions:
``parse_query`` → ``Optimizer.optimize`` → ``make_runtime``/``compile_plan``
→ ``execute``.  The staged answer must equal the ``search`` answer.

The harness keeps its own memo of staged plans that mirrors the engine's
plan cache: when the workload's keys fit the cache (``warm_engine``) the
memo is primed like the cache was, so parse and optimize cost nothing
there, exactly as in ``search``; when they do not (``cold_plans``) every
request plans again, exactly as ``search`` does on a miss.
"""

from __future__ import annotations

import time

from repro.exec.compile import compile_plan
from repro.exec.engine import execute, make_runtime
from repro.graft.optimizer import Optimizer
from repro.index.builder import build_index
from repro.mcalc.parser import parse_query
from repro.sa.registry import get_scheme

from graftbench import check
from graftbench.harness import TOP_K
from graftbench.spans import SpanRecorder


def build_index_traced(collection, rec: SpanRecorder):
    """``build_index`` inside a span; the index and its two metrics."""
    with rec.span("index.build"):
        index = build_index(collection)
    return index, {
        "index.build_ms": rec.mean_ms("index.build"),
        "index.postings_positions": float(
            sum(p.total_positions for p in index.terms.values())
        ),
    }


def staged_requests(engine, keys, reference, seconds, rec: SpanRecorder):
    """Whole passes of traced requests over ``keys`` for ``seconds``.

    Returns ``(metrics, attempted, failed)``; timings are means per
    request in milliseconds.
    """
    index = engine.index
    analyzer = engine.collection.analyzer
    fits_cache = len(keys) <= engine.cache_config.plan_capacity
    memo = {}
    if fits_cache:
        for text, scheme_name in keys:
            memo[(text, scheme_name)] = _plan(text, scheme_name, index, analyzer)

    cache_before = engine.cache_stats()["plan"]
    requests = failed = planned = 0
    rules = rewrites = nodes = 0
    started = time.perf_counter()
    while True:
        for key in keys:
            text, scheme_name = key
            scheme = get_scheme(scheme_name)
            root = rec.begin("request", request=requests)
            with rec.span("engine.search"):
                outcome = engine.search(text, scheme=scheme_name, top_k=TOP_K)
            result = memo.get(key)
            plans_now = result is None
            if plans_now:
                with rec.span("mcalc.parse"):
                    query = parse_query(text, analyzer)
                with rec.span("graft.optimize"):
                    result = Optimizer(scheme, index).optimize(query)
                planned += 1
                rules += len(result.rewrites)
                rewrites += len(result.applied)
                nodes += sum(1 for _ in result.plan.walk())
            with rec.span("exec.compile"):
                compile_plan(result.plan, make_runtime(index, scheme, result.info))
            with rec.span("exec.execute"):
                pairs = execute(
                    result.plan, make_runtime(index, scheme, result.info),
                    top_k=TOP_K,
                )
            rec.end(root)
            if plans_now:
                # Outside the request: the canonical plan alone, the part
                # of optimize that is not rule application.
                with rec.span("graft.canonical", request=requests):
                    Optimizer(scheme, index).canonical(query)
            requests += 1
            got = check.answer_of(outcome.results)
            if not (check.same_answer(got, reference[key])
                    and check.same_answer(check.answer_of_pairs(pairs), got)):
                failed += 1
        if time.perf_counter() - started >= seconds:
            break

    cache_after = engine.cache_stats()["plan"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    own = rec.self_times()

    def per_request_ms(name: str) -> float:
        return own.get(name, 0.0) * 1000.0 / requests

    search_ms = per_request_ms("engine.search")
    # What search itself does: plan on a miss, then compile-and-execute
    # (``execute`` compiles internally, so exec.execute covers both).
    staged_ms = (per_request_ms("mcalc.parse") + per_request_ms("graft.optimize")
                 + per_request_ms("exec.execute"))
    metrics = {
        "mcalc.parse_ms": per_request_ms("mcalc.parse"),
        "graft.optimize_ms": per_request_ms("graft.optimize"),
        "graft.canonical_ms": per_request_ms("graft.canonical"),
        "graft.rules_considered": rules / planned if planned else 0.0,
        "graft.rewrites_applied": rewrites / planned if planned else 0.0,
        "graft.plan_nodes": nodes / planned if planned else 0.0,
        "exec.cache.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.compile_ms": per_request_ms("exec.compile"),
        "exec.execute_ms": per_request_ms("exec.execute"),
        "exec.engine_overhead_ms": search_ms - staged_ms,
        "trace.self_time_coverage": rec.coverage("request"),
    }
    return metrics, requests, failed


def _plan(text, scheme_name, index, analyzer):
    return Optimizer(get_scheme(scheme_name), index).optimize(
        parse_query(text, analyzer)
    )


def profiled_pass(engine, keys) -> dict[str, float]:
    """One plain and one ``profile=True`` pass over ``keys``: operator
    work counts from the public trace tree (they repeat exactly) and what
    profiling costs."""
    clock = time.perf_counter
    started = clock()
    for text, scheme_name in keys:
        engine.search(text, scheme=scheme_name, top_k=TOP_K)
    plain_s = clock() - started

    rows_out = scan_rows = join_rows = seeks = results = 0
    started = clock()
    for text, scheme_name in keys:
        outcome = engine.search(text, scheme=scheme_name, top_k=TOP_K, profile=True)
        results += len(outcome.results)
        rows_out += outcome.stats.stats.rows_out
        for node in outcome.stats.walk():
            seeks += node.stats.seeks
            if not node.children:
                scan_rows += node.stats.rows_out
            elif "Join" in node.op_name:
                join_rows += node.stats.rows_out
    profiled_s = clock() - started
    n = len(keys)
    return {
        "exec.rows_out": rows_out / n,
        "exec.scan_rows": scan_rows / n,
        "exec.join_rows": join_rows / n,
        "exec.seeks": seeks / n,
        "exec.rows_per_result": scan_rows / results if results else 0.0,
        "obs.profile_overhead_ratio": profiled_s / plain_s,
    }
