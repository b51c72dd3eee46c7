"""``warm_engine`` and ``cold_plans``: one caller, ``SearchEngine.search``,
serial executor — the plan cache used the two opposite ways.

``warm_engine``: 80 texts × 3 schemes = 240 keys, fewer than the plan
cache holds (256), pre-warmed: every lookup hits, so operators (scan,
join, score, top-k) do nearly all the work.  ``cold_plans``: 1 024
distinct texts in a fixed cycle, more than the cache holds, so every
lookup misses and evicts: parse, canonicalize, optimize and compile
dominate and executing over 150 documents is the smaller part.
"""

from __future__ import annotations

import os

from repro import SearchEngine, available_schemes

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

WARM_DOCS = 2000
WARM_GENERATED = 72
WARM_SCHEMES = ("sumbest", "lucene", "anysum")
COLD_DOCS = 150
COLD_TEXTS = 1024
#: p95, not p99: every full-scale run times well over 1 000 searches, but
#: between seeds on identical code p99 moved by 4 % (warm) and 6 % (cold),
#: p95 by 2 %.
TAIL = 0.95
ORACLE_SAMPLE = 64
#: The brute-force oracle is exponential: small corpora only.
ORACLE_MAX_DOCS = 600


def prepare_warm(cfg: RunConfig) -> Prepared:
    docs = cfg.scaled(WARM_DOCS, 60)
    collection = inputs.corpus(docs, cfg.seed)
    generated = queries.generate(
        collection, cfg.scaled(WARM_GENERATED, len(queries.TEMPLATES)), cfg.seed
    )
    texts = list(queries.PAPER) + generated
    keys = [(text, scheme) for text in texts for scheme in WARM_SCHEMES]
    return Prepared.of(collection, texts, keys)


def prepare_cold(cfg: RunConfig) -> Prepared:
    docs = cfg.scaled(COLD_DOCS, 60)
    collection = inputs.corpus(docs, cfg.seed)
    # Never fewer texts than the plan cache holds, or lookups would hit.
    texts = queries.generate(collection, cfg.scaled(COLD_TEXTS, 320), cfg.seed)
    schemes = available_schemes()
    keys = [(text, schemes[i % len(schemes)]) for i, text in enumerate(texts)]
    return Prepared.of(collection, texts, keys)


def run_warm(cfg: RunConfig) -> RunResult:
    return _run(cfg, "warm_engine", prepare_warm(cfg), prewarm=True)


def run_cold(cfg: RunConfig) -> RunResult:
    return _run(cfg, "cold_plans", prepare_cold(cfg), prewarm=False)


def _run(cfg: RunConfig, name: str, prepared: Prepared, prewarm: bool) -> RunResult:
    if cfg.pinned:
        golden.verify(name, prepared)
    keys, reference = prepared.keys, prepared.reference
    docs = len(prepared.collection)
    result = RunResult(notes={"docs": docs, "keys": len(keys), "closed_loop_callers": 1})
    if docs <= ORACLE_MAX_DOCS:
        wrong = check.oracle_mismatches(
            check.reference_engine(prepared.collection), reference, TOP_K,
            cfg.seed, ORACLE_SAMPLE,
        )
        result.attempted += min(ORACLE_SAMPLE, len(reference))
        result.failed += wrong
        result.notes["oracle_mismatches"] = wrong
    maybe_corrupt(cfg, reference)

    def build() -> SearchEngine:
        # Set-up as a user pays it: generate, index, and (warm) run every
        # key once so the plan cache holds the whole mix.
        engine = SearchEngine(inputs.corpus(docs, cfg.seed), executor="serial")
        engine.index
        if prewarm:
            for text, scheme in keys:
                engine.search(text, scheme=scheme, top_k=TOP_K)
        return engine

    if cfg.trace:
        _trace(cfg, name, build, prepared, result)
        return result

    engine, setup_s = repeat_setup(build)
    loop = search_passes(engine, keys, reference, cfg.seconds)
    result.attempted += loop.attempted
    result.failed += loop.failed
    result.metrics.update(loop.metrics(TAIL))
    result.metrics["setup_s"] = setup_s
    result.metrics["peak_rss_mb"] = system.peak_rss_mb([os.getpid()])
    result.notes.update(tail_notes(len(loop.latencies), TAIL))
    result.notes["passes"] = len(loop.passes)
    return result


def _trace(cfg, name, build, prepared: Prepared, result: RunResult) -> None:
    """Per-layer numbers: a quarter of the time untraced, a quarter staged
    and traced, then one plain and one profiled pass for the counts."""
    keys, reference = prepared.keys, prepared.reference
    rec = SpanRecorder()
    _index, metrics = layers.build_index_traced(prepared.collection, rec)
    engine = build()
    untraced = search_passes(engine, keys, reference, cfg.seconds / 4)
    staged, requests, failed = layers.staged_requests(
        engine, keys, reference, cfg.seconds / 4, rec
    )
    metrics.update(staged)
    metrics.update(layers.profiled_pass(engine, keys))
    metrics["trace.overhead_ratio"] = (
        rec.mean_ms("engine.search") / 1000.0 / stats.mean(untraced.latencies)
    )
    result.attempted += untraced.attempted + requests
    result.failed += untraced.failed + failed
    result.metrics.update(metrics)
    result.notes["traced_requests"] = requests
    write_trace(rec, name)
