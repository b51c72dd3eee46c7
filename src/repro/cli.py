"""Command-line interface.

Usage::

    python -m repro index  DOCS_DIR  INDEX_DIR      # index *.txt files
    python -m repro search INDEX_DIR QUERY [options]
    python -m repro explain INDEX_DIR QUERY [options]
    python -m repro verify INDEX_DIR                 # integrity audit
    python -m repro checkpoint INDEX_DIR             # compact the WAL
    python -m repro schemes                          # list scoring schemes
    python -m repro metrics [--format json|prom]     # metrics registry
    python -m repro qlog tail|stats LOG_PATH         # read a query log
    python -m repro serve INDEX_DIR [--port N]       # async query service
    python -m repro loadgen URL [options]            # drive a service
    python -m repro slow URL|FILE [-n N]             # tail-latency report
    python -m repro top URL [--once --json]          # live ops console

``index`` builds and persists the inverted index (plus documents and
titles) as a crash-safe generational store (``docs/STORAGE.md``) from a
directory of text files, one document per file; ``search`` runs a
shorthand query against a persisted index under any registered scoring
scheme (``--profile`` attaches the execution tracer and prints EXPLAIN
ANALYZE); ``explain`` prints the cost-annotated optimized plan instead
of executing it (``--analyze`` executes under the tracer, since actuals
require running; ``--trace-rules`` appends the optimizer's rewrite
log); ``verify`` audits every checksum and structural invariant of a
store; ``checkpoint`` compacts write-ahead-logged documents into a new
atomic generation; ``metrics`` exports this process's metrics registry.
``search``/``explain`` also read a pre-store directory through its
``documents.jsonl``.  ``search --audit`` shadow-executes the canonical
score-isolated plan and exits 3 on a score-consistency divergence;
``qlog`` tails or aggregates a structured query log written by
:class:`repro.obs.qlog.QueryLog`.  Performance is not gated here: wall
clock is judged by ``python -m graftbench compare`` and the paper
workload's work counters by ``tests/bench/test_counters.py``.

``search``/``explain``/``verify`` take ``--json``: exactly one JSON
object on stdout (schema for the search trace:
``tests/obs/trace_schema.json``); warnings stay on stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.corpus.analyzer import SentenceAnalyzer, SimpleAnalyzer
from repro.corpus.collection import DocumentCollection
from repro.errors import GraftError
from repro.exec.limits import QueryLimits
from repro.exec.parallel import run_plan
from repro.graft.explain import explain as explain_plan
from repro.graft.optimizer import Optimizer
from repro.index.index import Index
from repro.mcalc.parser import parse_query
from repro.sa.registry import available_schemes, get_scheme


def _add_sharding_options(p: argparse.ArgumentParser) -> None:
    """``--shards`` / ``--executor``: the same pair on search and serve."""
    p.add_argument("--shards", type=int, default=None,
                   help="execute plans across N contiguous doc-id shards "
                        "with a score-consistent top-k merge (default: "
                        "REPRO_SHARDS or 1 = serial)")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   default=None,
                   help="backend for sharded execution: thread pool, "
                        "worker processes over a shared-memory packed "
                        "index, or pinned serial (default: REPRO_EXEC or "
                        "thread)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRAFT: full-text search with score-consistent "
                    "algebraic optimization (SIGMOD 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index a directory of .txt files")
    p_index.add_argument("docs_dir", help="directory containing *.txt files")
    p_index.add_argument("index_dir", help="output directory for the index")
    p_index.add_argument(
        "--sentences", action="store_true",
        help="record sentence boundaries (enables the SAMESENTENCE "
             "predicate over real sentences)",
    )

    for name, help_text in (
        ("search", "run a query against a persisted index"),
        ("explain", "show the optimized plan for a query"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("index_dir", help="directory written by 'repro index'")
        p.add_argument("query", help="shorthand query text")
        p.add_argument("--scheme", default="sumbest",
                       help="scoring scheme name (see 'repro schemes')")
        p.add_argument("--top-k", type=int, default=10,
                       help="number of results (search only)")
        p.add_argument("--no-optimize", action="store_true",
                       help="run/show the canonical score-isolated plan")
        p.add_argument("--timeout-ms", type=float, default=None,
                       help="wall-clock deadline for query execution "
                            "(milliseconds)")
        p.add_argument("--max-rows", type=int, default=None,
                       help="budget on rows materialized during execution")
        p.add_argument("--max-matches-per-doc", type=int, default=None,
                       help="cap on match rows produced within one document")
        p.add_argument("--on-limit", choices=("error", "partial"),
                       default="error",
                       help="tripped limit behavior: fail the query "
                            "(error) or return the ranked prefix computed "
                            "so far (partial)")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object on stdout instead of text")
        if name == "search":
            _add_sharding_options(p)
            p.add_argument("--profile", action="store_true",
                           help="trace execution and print EXPLAIN ANALYZE "
                                "(per-operator actuals vs. estimates)")
            p.add_argument("--audit", action="store_true",
                           help="shadow-execute the unoptimized canonical "
                                "plan and diff matches and scores "
                                "(score-consistency audit; exit code 3 on "
                                "divergence)")
        else:
            p.add_argument("--analyze", action="store_true",
                           help="execute the plan under the tracer and show "
                                "per-operator actuals next to estimates")
            p.add_argument("--trace-rules", action="store_true",
                           help="show the optimizer's rewrite log: every "
                                "rule considered, its verdict, and costs")

    p_verify = sub.add_parser(
        "verify",
        help="audit a persisted index: checksums, structure, WAL",
    )
    p_verify.add_argument("index_dir", help="directory written by 'repro index'")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the audit report as one JSON object")

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="compact write-ahead-logged documents into a new generation",
    )
    p_ckpt.add_argument("index_dir", help="store directory to checkpoint")

    sub.add_parser("schemes", help="list registered scoring schemes")

    p_metrics = sub.add_parser(
        "metrics",
        help="export the process-wide metrics registry",
    )
    p_metrics.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="JSON snapshot or Prometheus text exposition format",
    )

    p_qlog = sub.add_parser(
        "qlog",
        help="read a structured query log (JSONL) back",
    )
    qsub = p_qlog.add_subparsers(dest="qlog_command", required=True)
    p_tail = qsub.add_parser("tail", help="show the most recent records")
    p_tail.add_argument("log_path", help="query log file (qlog.jsonl)")
    p_tail.add_argument("-n", "--lines", type=int, default=10,
                        help="number of records to show (default 10)")
    p_tail.add_argument("--json", action="store_true",
                        help="emit one JSON object with the records")
    p_stats = qsub.add_parser(
        "stats", help="aggregate a query log (counts, latencies, slow/audit)"
    )
    p_stats.add_argument("log_path", help="query log file (qlog.jsonl)")
    p_stats.add_argument("--active-only", action="store_true",
                         help="ignore rotated siblings (qlog.jsonl.N)")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the aggregate as one JSON object")

    p_serve = sub.add_parser(
        "serve",
        help="serve a store over HTTP: /search /explain /healthz /readyz "
             "/metrics, with admission control, load shedding, and live "
             "generation hot-swap (docs/SERVICE.md)",
    )
    p_serve.add_argument("index_dir", help="store directory to serve "
                                           "(created if missing)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 = ephemeral; default 8321)")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="concurrent search executions (default 8)")
    p_serve.add_argument("--max-queue", type=int, default=16,
                         help="waiting requests before load shedding "
                              "(default 16)")
    p_serve.add_argument("--deadline-ms", type=float, default=1000.0,
                         help="default per-request budget, queue wait "
                              "included (default 1000)")
    _add_sharding_options(p_serve)
    p_serve.add_argument("--workers", type=int, default=None,
                         help="search executor width: threads serving "
                              "requests (default --max-inflight); the "
                              "process driver additionally sizes its "
                              "worker-process pool to min(shards, cores)")
    p_serve.add_argument("--checkpoint-every", type=int, default=0,
                         help="auto checkpoint+swap after N added "
                              "documents (0 = only via POST "
                              "/admin/checkpoint)")
    p_serve.add_argument("--drain-timeout-s", type=float, default=5.0,
                         help="graceful-shutdown budget on SIGTERM "
                              "(default 5)")
    p_serve.add_argument("--no-telemetry", action="store_true",
                         help="disable request telemetry (correlation "
                              "ids, phase spans, /debug/requests and "
                              "/debug/slow)")
    p_serve.add_argument("--slow-capacity", type=int, default=32,
                         help="worst wide events retained by the "
                              "slow-request capture (default 32)")
    p_serve.add_argument("--slow-window-s", type=float, default=600.0,
                         help="rolling window of the slow-request "
                              "capture in seconds (default 600)")
    p_serve.add_argument("--qlog", default=None, metavar="PATH",
                         help="attach a structured query log at PATH "
                              "(records carry the request id; joinable "
                              "with /debug/slow)")
    p_serve.add_argument("--qlog-sample-rate", type=float, default=1.0,
                         help="fraction of ordinary queries the attached "
                              "qlog keeps (default 1.0; slow/failed "
                              "always logged)")
    p_serve.add_argument("--enable-profile", action="store_true",
                         help="enable GET /debug/profile?seconds=N (the "
                              "stdlib sampling profiler; off by default)")
    p_serve.add_argument("--slo", action="append", default=[],
                         metavar="SPEC", dest="slos",
                         help="declare an objective for the SLO engine, "
                              "repeatable; e.g. latency:p99:50ms:0.99 or "
                              "availability:0.999 (serves /debug/slo and "
                              "graft_slo_* metrics)")
    p_serve.add_argument("--slo-shed", action="store_true",
                         help="arm early admission shedding (half the "
                              "queue watermark) while a fast-window "
                              "burn-rate breach is in progress")
    p_serve.add_argument("--spans", action="store_true",
                         help="export one unified OTLP-shaped span tree "
                              "per request, served at "
                              "/debug/trace/<request-id>")
    p_serve.add_argument("--spans-path", default=None, metavar="PATH",
                         help="also append exported traces to this "
                              "rotating JSONL file (implies --spans "
                              "semantics; one payload per line)")
    p_serve.add_argument("--spans-capacity", type=int, default=256,
                         help="traces retained by the in-memory ring "
                              "(default 256)")

    p_slow = sub.add_parser(
        "slow",
        help="aggregate captured slow-request wide events into a "
             "'where does p99 go' per-phase attribution report",
    )
    p_slow.add_argument(
        "source",
        help="a running service base URL (fetches /debug/slow) or a "
             "JSON/JSONL file of wide events (e.g. a saved /debug/slow "
             "response)",
    )
    p_slow.add_argument("-n", type=int, default=64,
                        help="events to fetch from /debug/slow "
                             "(default 64)")
    p_slow.add_argument("--tail-q", type=float, default=0.99,
                        help="tail quantile to attribute (default 0.99)")
    p_slow.add_argument("--json", action="store_true",
                        help="emit the report as one JSON object")

    p_top = sub.add_parser(
        "top",
        help="live ops console for a running service: rolling latency, "
             "admission counters, cache hit ratios, SLO budget bars "
             "(polls /status + /debug/slo + /metrics)",
    )
    p_top.add_argument("url", help="service base URL, e.g. "
                                   "http://127.0.0.1:8321")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between repaints (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit (no "
                            "screen clearing)")
    p_top.add_argument("--json", action="store_true",
                       help="emit the raw polled snapshot as JSON "
                            "(pairs with --once for scripting/CI)")
    p_top.add_argument("--no-color", action="store_true",
                       help="disable ANSI colors")

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a running query service and report qps/p50/p99, "
             "shed and timeout counts, and generations observed",
    )
    p_loadgen.add_argument("url", help="service base URL, e.g. "
                                       "http://127.0.0.1:8321")
    p_loadgen.add_argument("-n", "--requests", type=int, default=200)
    p_loadgen.add_argument("-c", "--concurrency", type=int, default=8)
    p_loadgen.add_argument("--scheme", default="sumbest")
    p_loadgen.add_argument("--top-k", type=int, default=10)
    p_loadgen.add_argument("--deadline-ms", type=float, default=None,
                           help="per-request deadline to request")
    p_loadgen.add_argument("--swap-at", type=int, default=None,
                           help="POST /admin/checkpoint after this many "
                                "responses (mid-run hot swap)")
    p_loadgen.add_argument("--respect-retry-after", action="store_true",
                           help="on 503, honor the Retry-After hint and "
                                "retry instead of moving on")
    p_loadgen.add_argument("--json", action="store_true",
                           help="emit the report as one JSON object")
    return parser


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.api import SearchEngine

    docs_dir = pathlib.Path(args.docs_dir)
    files = sorted(docs_dir.glob("*.txt"))
    if not files:
        print(f"no .txt files under {docs_dir}", file=sys.stderr)
        return 1
    analyzer = SentenceAnalyzer() if args.sentences else SimpleAnalyzer()
    collection = DocumentCollection(analyzer)
    for path in files:
        collection.add_text(path.read_text(), title=path.stem)
    engine = SearchEngine(collection)
    engine.save(args.index_dir)
    index = engine.index
    print(f"indexed {len(collection)} documents "
          f"({index.stats.total_tokens} tokens, "
          f"{index.vocabulary_size()} terms) -> {args.index_dir}")
    return 0


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load(args: argparse.Namespace) -> tuple[Index, list[str]]:
    """Load the index and titles from a store or a pre-store directory.

    A missing title list degrades output (results show bare doc ids), so
    it is warned about explicitly instead of silently substituting [].
    """
    from repro.index.store import TITLES_FILE, IndexStore

    index_dir = pathlib.Path(args.index_dir)
    if IndexStore.is_store(index_dir):
        store = IndexStore.open(index_dir)
        index = store.load_index()
        if store.wal_records():
            _warn(
                f"{index_dir} has write-ahead-logged documents not yet "
                f"checkpointed; run 'repro checkpoint' to include them"
            )
        if store.has_file(TITLES_FILE):
            titles = json.loads(store.read_file(TITLES_FILE))
        else:
            _warn(
                f"no {TITLES_FILE} in {index_dir}; results will show "
                f"bare doc ids instead of titles"
            )
            titles = []
        return index, titles
    from repro.api import SearchEngine

    engine = SearchEngine.load(index_dir)
    return engine.index, [doc.title for doc in engine.collection]


def _optimize(args: argparse.Namespace, index: Index):
    scheme = get_scheme(args.scheme)
    query = parse_query(args.query, SimpleAnalyzer())
    optimizer = Optimizer(scheme, index)
    result = (
        optimizer.canonical(query) if args.no_optimize
        else optimizer.optimize(query)
    )
    return scheme, result


def _limits_from_args(args: argparse.Namespace) -> QueryLimits | None:
    if (
        args.timeout_ms is None
        and args.max_rows is None
        and args.max_matches_per_doc is None
    ):
        return None
    return QueryLimits(
        deadline_ms=args.timeout_ms,
        max_rows=args.max_rows,
        max_matches_per_doc=args.max_matches_per_doc,
        on_limit=args.on_limit,
    )


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.api import _resolve_executor, _resolve_shards

    index, titles = _load(args)
    scheme, result = _optimize(args, index)
    run = run_plan(
        index, result.plan, scheme, result.info,
        top_k=args.top_k, limits=_limits_from_args(args),
        profile=args.profile,
        executor=_resolve_executor(args.executor),
        shards=_resolve_shards(args.shards),
    )
    ranked = run.results
    limit_hit = run.tripped
    trace_root = run.trace_root
    if limit_hit is not None:
        print(f"note: partial results — {limit_hit} limit hit",
              file=sys.stderr)
    if trace_root is not None:
        from repro.obs.analyze import annotate_estimates

        annotate_estimates(trace_root, index)

    audit_event = None
    if args.audit and limit_hit is None:
        from repro.obs.audit import shadow_audit

        query = parse_query(args.query, SimpleAnalyzer())
        audit_event = shadow_audit(
            index, scheme, query, ranked,
            top_k=args.top_k,
            rewrite_log=result.rewrites,
            applied=result.applied,
            query_text=args.query,
        )
    elif args.audit:
        _warn("audit skipped: partial (limit-degraded) results cannot be "
              "compared against the canonical plan")

    def title_of(doc: int) -> str:
        return titles[doc] if doc < len(titles) else f"doc{doc}"

    if args.json:
        payload = {
            "query": args.query,
            "scheme": scheme.name,
            "results": [
                {"rank": rank, "doc_id": doc, "score": score,
                 "title": title_of(doc)}
                for rank, (doc, score) in enumerate(ranked, start=1)
            ],
            "applied_optimizations": list(result.applied),
            "degraded": limit_hit is not None,
            "limit_hit": limit_hit,
            "metrics": run.metrics.as_dict(),
            "trace": (
                trace_root.to_dict() if trace_root is not None else None
            ),
            "wall_ms": run.wall_ms,  # the contract: no --profile, no wall time
            "audit": (
                audit_event.to_dict() if audit_event is not None else None
            ),
        }
        if run.executor != "serial":
            payload.update(shards=run.shard_count,
                           shards_pruned=run.shards_pruned,
                           executor=run.executor)
        print(json.dumps(payload))
        if audit_event is not None and not audit_event.ok:
            print(f"error: {audit_event.describe()}", file=sys.stderr)
            return 3
        return 0
    if not ranked:
        print("no matches")
    for rank, (doc, score) in enumerate(ranked, start=1):
        print(f"{rank:3}. {score:10.4f}  [{doc}] {title_of(doc)}")
    if run.executor != "serial":
        print(f"({run.shard_count} shards, {run.shards_pruned} pruned, "
              f"{run.executor} executor)", file=sys.stderr)
    if trace_root is not None:
        from repro.obs.analyze import render_analyze

        print()
        print(render_analyze(trace_root, total_ns=int(run.wall_ms * 1e6)))
    if audit_event is not None:
        print()
        print(audit_event.describe())
        if not audit_event.ok:
            print(f"error: {audit_event.describe()}", file=sys.stderr)
            return 3
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    index, _ = _load(args)
    scheme, result = _optimize(args, index)
    analyze_root = None
    wall_ms = None
    if args.analyze:
        from repro.obs.analyze import annotate_estimates

        run = run_plan(index, result.plan, scheme, result.info,
                       limits=_limits_from_args(args), profile=True)
        annotate_estimates(run.trace_root, index)
        analyze_root = run.trace_root
        wall_ms = run.wall_ms
    if args.json:
        payload = {
            "query": args.query,
            "scheme": scheme.name,
            "applied_optimizations": list(result.applied),
            "plan": explain_plan(result.plan),
            "rewrite_log": (
                [event.to_dict() for event in result.rewrites]
                if args.trace_rules else None
            ),
            "trace": (
                analyze_root.to_dict() if analyze_root is not None else None
            ),
            "wall_ms": wall_ms,
        }
        print(json.dumps(payload))
        return 0
    rewrites = ", ".join(result.applied) or "none"
    print(f"scheme: {scheme.name}")
    print(f"rewrites: {rewrites}")
    print(explain_plan(result.plan, index=index))
    if args.trace_rules:
        from repro.obs.rewrite import render_rewrite_log

        print()
        print("rewrite log:")
        print(render_rewrite_log(result.rewrites))
    if analyze_root is not None:
        from repro.obs.analyze import render_analyze

        print()
        print("analyze:")
        print(render_analyze(analyze_root, total_ns=int(wall_ms * 1e6)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.index.store import IndexStore

    report = IndexStore.open(args.index_dir).verify()
    if report["wal_torn_bytes"]:
        _warn("torn WAL tail present (interrupted append); it will "
              "be truncated on the next writer open")
    if args.json:
        print(json.dumps({"ok": True, "format": "store", **report}))
        return 0
    print(f"store OK: generation {report['generation']}, "
          f"{report['doc_count']} documents")
    for name, size in sorted(report["files"].items()):
        print(f"  {name:20} {size:10d} bytes  sha256 verified")
    print(f"  WAL: {report['wal_records']} records "
          f"({report['wal_pending']} pending checkpoint, "
          f"{report['wal_torn_bytes']} torn bytes)")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.api import SearchEngine

    with SearchEngine.open(args.index_dir) as engine:
        pending = len(engine.collection)
        generation = engine.checkpoint()
    print(f"checkpointed {pending} documents into {generation} "
          f"under {args.index_dir}")
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    for name in available_schemes():
        props = get_scheme(name).properties
        direction = props.directional or "diagonal"
        tags = [direction]
        if props.constant:
            tags.append("constant")
        if props.positional:
            tags.append("positional")
        print(f"{name:20} {', '.join(tags)}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import REGISTRY

    if args.format == "prom":
        sys.stdout.write(REGISTRY.to_prometheus_text())
    else:
        print(REGISTRY.to_json())
    return 0


def _cmd_qlog(args: argparse.Namespace) -> int:
    from repro.obs.qlog import log_stats, render_record, tail_records

    if args.qlog_command == "tail":
        records = tail_records(args.log_path, n=args.lines)
        if args.json:
            print(json.dumps({"path": args.log_path, "records": records}))
            return 0
        if not records:
            print("(empty query log)")
        for record in records:
            print(render_record(record))
        return 0
    stats = log_stats(args.log_path, include_rotated=not args.active_only)
    if args.json:
        print(json.dumps({"path": args.log_path, **stats}))
        return 0
    print(f"{stats['records']} records "
          f"({stats['forced']} force-logged, {stats['slow']} slow, "
          f"{stats['audit_failures']} audit failures)")
    for status, n in stats["by_status"].items():
        print(f"  status {status:10} {n}")
    for scheme, n in stats["by_scheme"].items():
        print(f"  scheme {scheme:10} {n}")
    wall = stats["wall_ms"]
    print(f"  wall ms: p50 {wall['p50']:.3f}  p95 {wall['p95']:.3f}  "
          f"max {wall['max']:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms,
        shards=args.shards,
        executor=args.executor,
        executor_workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        drain_timeout_s=args.drain_timeout_s,
        telemetry=not args.no_telemetry,
        slow_capacity=args.slow_capacity,
        slow_window_s=args.slow_window_s,
        qlog_path=args.qlog,
        qlog_sample_rate=args.qlog_sample_rate,
        profile_endpoint=args.enable_profile,
        slos=tuple(args.slos),
        slo_shed=args.slo_shed,
        # A spans file implies span export; the flag alone keeps the
        # in-memory ring only.
        spans=args.spans or args.spans_path is not None,
        spans_path=args.spans_path,
        spans_capacity=args.spans_capacity,
    )
    asyncio.run(run_server(args.index_dir, config))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.console import run_top

    return run_top(
        args.url,
        interval_s=args.interval,
        once=args.once,
        as_json=args.json,
        color=not args.no_color and sys.stdout.isatty(),
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    from urllib.parse import urlsplit

    from repro.serve import run_loadgen

    split = urlsplit(
        args.url if "//" in args.url else f"http://{args.url}"
    )
    if split.hostname is None or split.port is None:
        print(f"error: cannot parse host:port from {args.url!r}",
              file=sys.stderr)
        return 2
    report = asyncio.run(
        run_loadgen(
            split.hostname,
            split.port,
            requests=args.requests,
            concurrency=args.concurrency,
            scheme=args.scheme,
            top_k=args.top_k,
            deadline_ms=args.deadline_ms,
            swap_at=args.swap_at,
            respect_retry_after=args.respect_retry_after,
        )
    )
    summary = report.summary()
    if args.json:
        print(json.dumps(summary))
        return 0 if report.errors == 0 else 1
    print(f"{summary['requests']} requests in {summary['wall_s']:.3f}s "
          f"({summary['qps']:.1f} qps, concurrency {args.concurrency})")
    print(f"  ok {summary['ok']}  shed {summary['shed']}  "
          f"timeouts {summary['timeouts']}  errors {summary['errors']}  "
          f"degraded {summary['degraded']}")
    print(f"  latency ms (accepted): p50 {summary['p50_ms']:.3f}  "
          f"p95 {summary['p95_ms']:.3f}  p99 {summary['p99_ms']:.3f}")
    print(f"  generations observed: "
          f"{', '.join(summary['generations']) or '(none)'}  "
          f"epochs: {summary['epochs']}")
    if summary["id_mismatches"]:
        print(f"  WARNING: {summary['id_mismatches']} responses did not "
              f"echo X-Request-Id", file=sys.stderr)
    return 0 if report.errors == 0 and report.id_mismatches == 0 else 1


def _cmd_slow(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import attribute_phases, render_attribution

    events: list[dict] = []
    source = args.source
    looks_like_url = "://" in source or (
        not pathlib.Path(source).exists() and ":" in source
    )
    if looks_like_url:
        import urllib.error
        import urllib.request

        base = source if "://" in source else f"http://{source}"
        url = f"{base.rstrip('/')}/debug/slow?n={args.n}"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
            return 2
        events = payload.get("events", [])
    else:
        path = pathlib.Path(source)
        if not path.exists():
            print(f"error: no such file {source!r}", file=sys.stderr)
            return 2
        text = path.read_text(encoding="utf-8").strip()
        if text.startswith("{") and "\n{" not in text:
            payload = json.loads(text)
            # A saved /debug/slow response, a single wide event, or a
            # {"events": [...]} envelope.
            events = payload.get("events", [payload] if "phase_ms" in payload else [])
        else:
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if isinstance(record, dict):
                    events.append(record)
    # Graceful degradation on pre-telemetry records: qlog schema v1 has
    # neither request_id nor phase_ms, so those records cannot be
    # attributed — skip them with a count instead of erroring out.
    usable = [
        e for e in events
        if isinstance(e.get("phase_ms"), dict) and e.get("request_id")
    ]
    skipped = len(events) - len(usable)
    if skipped:
        _warn(
            f"skipped {skipped} record(s) without request_id/phase_ms "
            f"(qlog schema v1 or non-telemetry records)"
        )
    report = attribute_phases(usable, tail_q=args.tail_q)
    report["skipped"] = skipped
    if args.json:
        print(json.dumps(report))
        return 0
    print(render_attribution(report))
    if skipped:
        print(f"({skipped} unattributable record(s) skipped)")
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "search": _cmd_search,
    "explain": _cmd_explain,
    "verify": _cmd_verify,
    "checkpoint": _cmd_checkpoint,
    "schemes": _cmd_schemes,
    "metrics": _cmd_metrics,
    "qlog": _cmd_qlog,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "loadgen": _cmd_loadgen,
    "slow": _cmd_slow,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
