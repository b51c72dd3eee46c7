"""``parallel_scan``: the process executor on scan-heavy queries.

``SearchEngine(executor="process", shards=2)`` over a 4 000-document
corpus: the packed index blob sits in shared memory and two worker
processes each scan half of the document range.  The mix is the 8 paper
queries plus 12 generated scan-heavy ones (``WINDOW``, ``PROXIMITY`` and
disjunctions over terms found in 30–80 % of the documents), ``sumbest``,
``top_k=10``.  Twelve, not eight, so that the median operation is a
scan-heavy query and not the gap between the two groups.

This is the workload that says whether the process path beats serial at
a declared (documents, cores) point: ``exec.procpool.speedup_vs_serial``
in the traced run.
"""

from __future__ import annotations

import os
import time

from repro import SearchEngine
from repro.exec.engine import execute, make_runtime
from repro.exec.parallel import execute_sharded, merge_ranked
from repro.exec.procpool import (
    ProcessShardPool,
    SharedIndexPublication,
    execute_sharded_process,
)
from repro.graft.optimizer import Optimizer
from repro.index.packed import PackedIndex, pack_index
from repro.index.shard import ShardedIndex
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from graftbench import check, golden, inputs, layers, queries, stats, system
from graftbench.harness import (
    TOP_K,
    Prepared,
    RunConfig,
    RunResult,
    maybe_corrupt,
    repeat_setup,
    search_passes,
    tail_notes,
    write_trace,
)
from graftbench.spans import SpanRecorder

DOCS = 4000
GENERATED = 12
SCHEME = "sumbest"
SHARDS = 2
#: A full-scale run times 200–300 searches: p95 has ten beyond it, p99 not.
TAIL = 0.95


def prepare(cfg: RunConfig) -> Prepared:
    collection = inputs.corpus(cfg.scaled(DOCS, 60), cfg.seed)
    generated = queries.generate(
        collection, cfg.scaled(GENERATED, len(queries.SCAN_TEMPLATES)),
        cfg.seed, queries.SCAN_TEMPLATES,
    )
    texts = list(queries.PAPER) + generated
    keys = [(text, SCHEME) for text in texts]
    return Prepared.of(collection, texts, keys)


def run(cfg: RunConfig) -> RunResult:
    prepared = prepare(cfg)
    if cfg.pinned:
        golden.verify("parallel_scan", prepared)
    keys, reference = prepared.keys, prepared.reference
    docs = len(prepared.collection)
    maybe_corrupt(cfg, reference)
    result = RunResult(notes={
        "docs": docs, "keys": len(keys), "shards": SHARDS,
        "cores": len(os.sched_getaffinity(0)), "closed_loop_callers": 1,
    })

    def build() -> SearchEngine:
        # Generate, index, then one pass over the mix: the first search
        # packs the index, publishes the blob in shared memory and starts
        # the workers; the rest fill the plan cache and let each worker
        # decode the postings it will scan, which it does once per term.
        engine = SearchEngine(
            inputs.corpus(docs, cfg.seed), executor="process", shards=SHARDS
        )
        try:
            for text, scheme in keys:
                engine.search(text, scheme=scheme, top_k=TOP_K)
        except BaseException:
            engine.close()
            raise
        return engine

    if cfg.trace:
        engine = build()
        try:
            _trace(cfg, engine, prepared, result)
        finally:
            engine.close()
        return result

    engine, setup_s = repeat_setup(build, lambda engine: engine.close())
    try:
        loop = search_passes(engine, keys, reference, cfg.seconds, executor="process")
        rss = system.peak_rss_mb([os.getpid(), *system.child_pids()])
    finally:
        engine.close()
    result.attempted = loop.attempted
    result.failed = loop.failed
    result.metrics = {**loop.metrics(TAIL), "setup_s": setup_s, "peak_rss_mb": rss}
    result.notes.update(tail_notes(len(loop.latencies), TAIL))
    result.notes["passes"] = len(loop.passes)
    return result


def _decode_all(index, terms) -> tuple[float, int]:
    """Seconds to fetch every term's postings and hand out every position
    run as scans do, and the positions handed out."""
    positions = 0
    started = time.perf_counter()
    for term in terms:
        for run in index.postings(term).offsets:
            positions += len(run)
    return time.perf_counter() - started, positions


def _trace(cfg: RunConfig, engine, prepared: Prepared, result: RunResult) -> None:
    keys, reference = prepared.keys, prepared.reference
    rec = SpanRecorder()
    index, metrics = layers.build_index_traced(prepared.collection, rec)
    with rec.span("index.pack"):
        blob = pack_index(index)
    with rec.span("index.packed_open"):
        packed = PackedIndex(blob)
    terms = sorted({
        keyword
        for text, _ in keys
        for keyword in engine.parse(text).var_keywords.values()
    })
    packed_s, positions = _decode_all(packed, terms)
    object_s, _ = _decode_all(index, terms)
    with rec.span("exec.procpool.publish"):
        publication = SharedIndexPublication(blob)
    publication.close()

    scheme = get_scheme(SCHEME)
    ctx = IndexScoringContext(index)
    sharded = ShardedIndex(index, SHARDS)
    plans = {
        key: Optimizer(scheme, index).optimize(engine.parse(key[0])) for key in keys
    }
    untraced = search_passes(
        engine, keys, reference, cfg.seconds / 4, executor="process"
    )

    pool_started = time.perf_counter()
    pool = ProcessShardPool(blob, SHARDS, max_workers=SHARDS)
    try:
        first = plans[keys[0]]
        execute_sharded_process(
            pool, sharded, first.plan, scheme, first.info, top_k=TOP_K
        )
        metrics["exec.procpool.pool_start_ms"] = (
            time.perf_counter() - pool_started
        ) * 1000.0

        shard_max, shard_skew, thread_dispatch, process_dispatch = [], [], [], []
        requests = failed = fallbacks = pruned = 0
        started = time.perf_counter()
        while True:
            for key in keys:
                plan = plans[key]
                root = rec.begin("request", request=requests)
                with rec.span("exec.serial"):
                    serial = execute(
                        plan.plan, make_runtime(index, scheme, plan.info), top_k=TOP_K
                    )
                span = rec.begin("exec.parallel.thread")
                threaded = execute_sharded(
                    sharded, plan.plan, scheme, plan.info, ctx, top_k=TOP_K
                )
                wall_ms = rec.end(span) * 1000.0
                span = rec.begin("exec.procpool.process")
                processed = execute_sharded_process(
                    pool, sharded, plan.plan, scheme, plan.info, top_k=TOP_K
                )
                process_ms = rec.end(span) * 1000.0
                with rec.span("engine.search"):
                    outcome = engine.search(key[0], scheme=SCHEME, top_k=TOP_K)
                rec.end(root)
                with rec.span("exec.parallel.merge", request=requests):
                    merge_ranked([r.rows for r in threaded.shard_runs], top_k=TOP_K)
                walls = [r.wall_ms for r in threaded.shard_runs]
                if walls:
                    shard_max.append(max(walls))
                    shard_skew.append(max(walls) * len(walls) / sum(walls))
                    thread_dispatch.append(wall_ms - max(walls))
                pruned += threaded.shards_pruned
                walls = [r.wall_ms for r in processed.shard_runs]
                if walls:
                    process_dispatch.append(process_ms - max(walls))
                requests += 1
                fallbacks += outcome.executor != "process"
                want = reference[key]
                answers = [
                    check.answer_of_pairs(rows)
                    for rows in (serial, threaded.results, processed.results)
                ]
                answers.append(check.answer_of(outcome.results))
                if not all(check.same_answer(a, want) for a in answers):
                    failed += 1
            if time.perf_counter() - started >= cfg.seconds / 4:
                break
    finally:
        pool.close()

    mean = lambda xs: stats.mean(xs) if xs else 0.0  # noqa: E731
    mean_ms = rec.mean_ms
    serial_ms = mean_ms("exec.serial")
    metrics.update({
        "index.pack_ms": mean_ms("index.pack"),
        "index.packed_bytes": float(len(blob)),
        "index.packed_open_ms": mean_ms("index.packed_open"),
        "index.packed_decode_ms": packed_s * 1000.0,
        "index.object_postings_ms": object_s * 1000.0,
        "index.decode_positions": float(positions),
        "exec.serial_ms": serial_ms,
        "exec.parallel.thread_s2_ms": mean_ms("exec.parallel.thread"),
        "exec.parallel.shard_max_ms": mean(shard_max),
        "exec.parallel.shard_skew": mean(shard_skew),
        "exec.parallel.merge_ms": mean_ms("exec.parallel.merge"),
        "exec.parallel.dispatch_ms": mean(thread_dispatch),
        "exec.parallel.shards_pruned": pruned / requests,
        "exec.parallel.speedup_vs_serial":
            serial_ms / mean_ms("exec.parallel.thread"),
        "exec.procpool.publish_ms": mean_ms("exec.procpool.publish"),
        "exec.procpool.process_s2_ms": mean_ms("exec.procpool.process"),
        "exec.procpool.dispatch_ms": mean(process_dispatch),
        "exec.procpool.speedup_vs_serial":
            serial_ms / mean_ms("exec.procpool.process"),
        "exec.procpool.fallbacks": float(fallbacks),
        "trace.overhead_ratio":
            mean_ms("engine.search") / 1000.0 / stats.mean(untraced.latencies),
        "trace.self_time_coverage": rec.coverage("request"),
    })
    result.metrics.update(metrics)
    result.attempted = untraced.attempted + requests
    result.failed = untraced.failed + failed
    result.notes["traced_requests"] = requests
    write_trace(rec, "parallel_scan")
