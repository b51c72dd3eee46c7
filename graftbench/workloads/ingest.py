"""``ingest_reopen``: the write side of the index.

One cycle: a fresh store directory; ``SearchEngine.open`` → ``ROUNDS``
rounds of ``add_many(BATCH raw texts)`` + ``checkpoint()`` → ``close()``;
then ``REOPENS`` times ``SearchEngine.open()`` → first ``search`` →
``close()``.  The analyzer, the index builder and the store (WAL append
and fsync per document, generation rewrite per checkpoint, SHA-256
verification on load) do all the work; no query operator matters.  Cycles
repeat until the run's seconds are spent.  Flush policy: the store's
default — every ``add`` is fsynced to the WAL before it returns.

The three operation metrics mean, here: ``ops_per_s`` documents made
durable per second of ``add_many`` + ``checkpoint`` time, the median over
cycles (``ingest_docs_per_s``); ``op_p50_ms`` the median time from ``open`` to
the first ranked result after a restart (``open_s`` × 1000);
``op_tail_ms`` the longest single ``checkpoint()`` of a cycle, the stall
a writer sees (median over cycles).
"""

from __future__ import annotations

import os
import shutil
import time

from repro import SearchEngine
from repro.errors import GraftError

from graftbench import check, golden, inputs, layers, queries, stats, system
from graftbench.harness import (
    TOP_K,
    Prepared,
    RunConfig,
    RunResult,
    maybe_corrupt,
    repeat_setup,
    scratch_dir,
    write_trace,
)
from graftbench.spans import SpanRecorder

ROUNDS = 3
BATCH = 500
REOPENS = 5
SCHEME = "sumbest"


def prepare(cfg: RunConfig) -> Prepared:
    """The documents to ingest and the reference for the first searches."""
    collection = inputs.corpus(ROUNDS * cfg.scaled(BATCH, 20), cfg.seed)
    texts = list(queries.PAPER)
    keys = [(text, SCHEME) for text in texts]
    return Prepared.of(collection, texts, keys)


def _tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(path)
        for name in names
    )


class _Cycle:
    """What one ingest-and-reopen cycle measured (seconds, bytes)."""

    def __init__(self):
        self.add_s: list[float] = []
        self.checkpoint_s: list[float] = []
        self.open_s: list[float] = []
        self.first_query_s: list[float] = []
        self.attempted = self.failed = 0
        self.store_bytes = self.generation_bytes = 0


def run_cycle(store, texts, keys, reference, rec: SpanRecorder) -> _Cycle:
    """One cycle on the fresh directory ``store``.  Every call into the
    system sits in a span of ``rec``; a cycle nobody traces passes a
    recorder it throws away (a span costs about a microsecond)."""
    out = _Cycle()
    batch = len(texts) // ROUNDS
    shutil.rmtree(store, ignore_errors=True)
    root = rec.begin("cycle")
    with rec.span("index.store.open"):
        engine = SearchEngine.open(store)
    try:
        for r in range(ROUNDS):
            out.attempted += 2
            try:
                span = rec.begin("engine.add_many")
                engine.add_many(texts[r * batch:(r + 1) * batch])
                out.add_s.append(rec.end(span))
                span = rec.begin("index.store.checkpoint")
                engine.checkpoint()
                out.checkpoint_s.append(rec.end(span))
            except GraftError:
                out.failed += 1
        out.generation_bytes = _tree_bytes(store / engine.loaded_generation)
    finally:
        engine.close()
    for k in range(REOPENS):
        key = keys[k % len(keys)]
        out.attempted += 1
        try:
            span = rec.begin("index.store.open")
            engine = SearchEngine.open(store)
            open_s = rec.end(span)
            try:
                span = rec.begin("index.store.first_query")
                outcome = engine.search(key[0], scheme=key[1], top_k=TOP_K)
                out.first_query_s.append(rec.end(span))
                out.open_s.append(open_s + out.first_query_s[-1])
                docs_seen = len(engine.collection)
            finally:
                engine.close()
        except GraftError:
            out.failed += 1
            continue
        if docs_seen != ROUNDS * batch or not check.same_answer(
            check.answer_of(outcome.results), reference[key]
        ):
            out.failed += 1
        if k == 0:
            # The first reopen garbage-collected the stale generations.
            out.store_bytes = _tree_bytes(store)
    rec.end(root)
    return out


def run(cfg: RunConfig) -> RunResult:
    prepared = prepare(cfg)
    if cfg.pinned:
        golden.verify("ingest_reopen", prepared)
    keys, reference = prepared.keys, prepared.reference
    docs = len(prepared.collection)
    maybe_corrupt(cfg, reference)
    result = RunResult(notes={
        "docs_per_cycle": docs, "rounds": ROUNDS, "reopens_per_cycle": REOPENS,
        "flush_policy": "store default: fsync the WAL on every add",
        "closed_loop_callers": 1,
    })
    scratch = scratch_dir()
    store = scratch / "ingest_reopen" / "store"
    try:
        if cfg.trace:
            _trace(cfg, store, prepared, result)
            return result
        # Set-up is making the inputs: the raw texts a user would ingest.
        texts, setup_s = repeat_setup(
            lambda: inputs.raw_texts(inputs.corpus(docs, cfg.seed))
        )
        cycles = []
        started = time.perf_counter()
        while not cycles or time.perf_counter() - started < cfg.seconds:
            cycles.append(run_cycle(store, texts, keys, reference, SpanRecorder()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Medians over cycles, so that one stalled fsync does not set the rate.
    rates = [
        len(c.checkpoint_s) * (docs // ROUNDS) / (sum(c.add_s) + sum(c.checkpoint_s))
        for c in cycles
    ]
    result.attempted = sum(c.attempted for c in cycles)
    result.failed = sum(c.failed for c in cycles)
    result.metrics = {
        "setup_s": setup_s,
        "op_p50_ms": stats.median([s for c in cycles for s in c.open_s]) * 1000.0,
        "op_tail_ms": stats.median([max(c.checkpoint_s) for c in cycles]) * 1000.0,
        "ops_per_s": stats.median(rates),
        "peak_rss_mb": system.peak_rss_mb([os.getpid()]),
    }
    result.notes["cycles"] = len(cycles)
    result.notes["reopens"] = sum(len(c.open_s) for c in cycles)
    return result


def _trace(cfg: RunConfig, store, prepared: Prepared, result: RunResult) -> None:
    keys, reference = prepared.keys, prepared.reference
    collection = prepared.collection
    texts = inputs.raw_texts(collection)
    rec = SpanRecorder()

    analyzer = collection.analyzer
    with rec.span("corpus.analyze"):
        tokens = sum(len(analyzer.analyze(text).tokens) for text in texts)
    _index, metrics = layers.build_index_traced(collection, rec)
    # The same texts into an engine with no store: what add_many costs
    # before the WAL.
    with rec.span("engine.add_many.memory"):
        SearchEngine().add_many(texts)

    untraced = run_cycle(store, texts, keys, reference, SpanRecorder())
    traced = run_cycle(store, texts, keys, reference, rec)

    mean_ms = rec.mean_ms
    ingest_s = sum(traced.add_s) + sum(traced.checkpoint_s)
    untraced_s = sum(untraced.add_s) + sum(untraced.checkpoint_s)
    text_bytes = sum(len(text) for text in texts)
    in_memory_s = rec.durations("engine.add_many.memory")[0]
    result.attempted = untraced.attempted + traced.attempted
    result.failed = untraced.failed + traced.failed
    result.metrics.update(metrics)
    result.metrics.update({
        "corpus.analyze_tokens_per_s": tokens / rec.durations("corpus.analyze")[0],
        "index.store.wal_append_ms":
            (sum(traced.add_s) - in_memory_s) * 1000.0 / len(texts),
        "index.store.checkpoint_ms": mean_ms("index.store.checkpoint"),
        "index.store.checkpoint_bytes": float(traced.generation_bytes),
        "index.store.open_ms": 1000.0 * stats.median(rec.durations("index.store.open")),
        "index.store.first_query_ms": mean_ms("index.store.first_query"),
        "ingest_docs_per_s": len(texts) / ingest_s,
        "open_s": stats.median(traced.open_s),
        "store_bytes_per_text_byte": traced.store_bytes / text_bytes,
        "trace.overhead_ratio": ingest_s / untraced_s,
        "trace.self_time_coverage": rec.coverage("cycle"),
    })
    result.notes["text_bytes"] = text_bytes
    write_trace(rec, "ingest_reopen")
