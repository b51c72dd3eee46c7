"""The public facade: index a collection, pick a scoring scheme, search.

Example:
    >>> from repro import SearchEngine
    >>> engine = SearchEngine()
    >>> engine.add("a quick brown fox")
    >>> engine.add("the fox jumped over the quick dog")
    >>> results = engine.search('"quick brown fox"', scheme="sumbest")
    >>> [r.doc_id for r in results]
    [0]
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.corpus.analyzer import Analyzer
from repro.corpus.collection import DocumentCollection
from repro.errors import (
    ConfigError,
    GraftError,
    IndexError_,
    ResourceExhaustedError,
)
from repro.exec.cache import CacheConfig, LRUCache
from repro.exec.engine import make_runtime, validate_top_k
from repro.exec.iterator import ExecutionMetrics, pull_doc
from repro.exec.limits import QueryLimits
from repro.exec.parallel import ParallelResult, note_fallback, run_plan
from repro.obs.telemetry import current as _telemetry_current
from repro.obs.telemetry import maybe_span as _maybe_span

if TYPE_CHECKING:
    import pathlib

    from repro.exec.faults import FaultInjector
    from repro.index.packed import PackedIndex
    from repro.index.shard import ShardedIndex
    from repro.index.store import IndexStore, StoreFaultInjector, StoreLock
    from repro.obs.audit import AuditConfig, AuditEvent, Auditor
    from repro.obs.qlog import QueryLog
    from repro.obs.rewrite import RewriteEvent
    from repro.obs.trace import TraceNode
from repro.graft.canonical import make_query_info
from repro.graft.explain import explain as explain_plan
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.index.builder import build_index
from repro.ma.match_table import MatchTable
from repro.ma.translate import matching_subplan
from repro.mcalc.ast import Query
from repro.mcalc.parser import parse_query
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.registry import get_scheme
from repro.sa.scheme import ScoringScheme


@dataclass(frozen=True)
class SearchResult:
    """One ranked answer."""

    doc_id: int
    score: float
    title: str = ""


@dataclass
class SearchOutcome:
    """Results plus execution provenance (plan, rewrites, work counters).

    ``degraded`` is True when a resource limit tripped under
    ``on_limit="partial"`` and the results are the correctly-ranked
    prefix of the documents scored before the trip; the tripped limit is
    recorded in ``metrics.limit_tripped`` and echoed in
    ``applied_optimizations`` as ``limit:<name>``.  ``limit_hit`` names
    that limit machine-readably (``"deadline_ms"``, ``"max_rows"``,
    ``"max_matches_per_doc"``; None when no limit tripped).

    ``rewrite_log`` is the optimizer's structured trace — one
    :class:`repro.obs.rewrite.RewriteEvent` per rule considered (empty
    for unoptimized searches).  ``stats`` is the per-operator execution
    trace tree (:class:`repro.obs.trace.TraceNode`), populated only for
    ``search(..., profile=True)``; ``wall_ms`` is the traced execution's
    wall-clock time.

    ``audit`` is the shadow-execution score-consistency verdict
    (:class:`repro.obs.audit.AuditEvent`) when this query was sampled by
    an engine-level audit config — ``audit.ok`` False means the
    optimized plan diverged from the canonical plan; None when auditing
    is off or this query was not sampled.

    ``shard_count``/``shards_pruned`` describe sharded execution: how
    many index shards the engine was configured with and how many of
    them partition pruning skipped (1 and 0 for unsharded execution).
    ``executor`` names what actually ran this query — ``"serial"`` (this
    process) or ``"process"`` (worker processes) — which can differ from
    the engine's configured executor when a process query ran
    in-process (docs/PERFORMANCE.md).  ``plan_cached`` is
    True when parse+optimize was skipped via the plan cache;
    ``result_cached`` is True when the whole outcome was answered from
    the result cache (no execution happened at all).
    """

    results: list[SearchResult]
    applied_optimizations: list[str]
    metrics: ExecutionMetrics
    plan_text: str = ""
    degraded: bool = False
    limit_hit: str | None = None
    rewrite_log: "list[RewriteEvent]" = field(default_factory=list)
    stats: "TraceNode | None" = None
    wall_ms: float | None = None
    audit: "AuditEvent | None" = None
    shard_count: int = 1
    shards_pruned: int = 0
    executor: str = "serial"
    plan_cached: bool = False
    result_cached: bool = False

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]


class SearchEngine:
    """Full-text search engine with generic, plug-in scoring.

    The engine owns a document collection and its index: one
    :class:`repro.index.packed.PackedIndex`, loaded from a store
    generation or built from the collection on first use.  Every
    ``search`` call picks a scoring scheme — by registry name or as a
    :class:`repro.sa.ScoringScheme` instance — and the optimizer tailors
    the plan to that scheme's declared properties, guaranteeing the scores
    of the canonical score-isolated plan (Definition 1).
    """

    def __init__(
        self,
        collection: DocumentCollection | None = None,
        analyzer: Analyzer | None = None,
        scoring_context: ScoringContext | None = None,
        audit: "AuditConfig | None" = None,
        qlog: "QueryLog | None" = None,
        shards: int | None = None,
        cache: CacheConfig | None = None,
        executor: str | None = None,
    ):
        """Args (observability; both default off with a zero-cost path):
            audit: Shadow-execution score-consistency auditing config
                (:class:`repro.obs.audit.AuditConfig`).  Sampled queries
                are re-executed on the canonical plan (and, for small
                collections, the MCalc oracle) and diffed; divergences
                surface on ``SearchOutcome.audit`` and, under
                ``mode="strict"``, raise
                :class:`repro.errors.ScoreConsistencyError`.
            qlog: A structured query log
                (:class:`repro.obs.qlog.QueryLog`); every search is
                offered to it (sampling and the slow-query override are
                the log's own policy).
            shards: Partition the index into this many contiguous
                doc-id ranges, execute the plan once per shard and merge
                the rankings with a score-consistent top-k merge
                (docs/PERFORMANCE.md).  ``None`` reads the
                ``REPRO_SHARDS`` environment variable (default 1 =
                unsharded).  Fault-injected searches always run
                unsharded (deterministic fault counters).
            cache: Two-tier query cache capacities
                (:class:`repro.exec.cache.CacheConfig`).  ``None``
                enables the default plan cache with the result cache
                off; pass :meth:`CacheConfig.off` to disable both.
            executor: Backend for sharded plans: ``"serial"`` (the
                shards run in this process, one after another) or
                ``"process"`` (worker processes attached to a
                shared-memory packed index; docs/PERFORMANCE.md).
                ``None`` reads the ``REPRO_EXEC`` environment variable
                (default serial).  A process query runs in-process
                instead — recorded on the ``graft_proc_fallbacks_total``
                metric — for engines with a scoring-context override,
                and where shared memory or worker processes are
                unavailable.
        """
        self.collection = (
            collection if collection is not None else DocumentCollection(analyzer)
        )
        #: What ``add`` invalidates: the packed index, built from the
        #: collection, loaded from a store generation, or the one a
        #: checkpoint just wrote.
        self._index: "PackedIndex | None" = None
        self._ctx_override = scoring_context
        self._store: "IndexStore | None" = None
        self._lock: "StoreLock | None" = None
        #: Store generation this engine's state was loaded from (None
        #: for purely in-memory engines); updated by checkpoint().
        self._loaded_generation: str | None = None
        self._qlog = qlog
        self._auditor: "Auditor | None" = None
        if audit is not None and audit.rate > 0:
            from repro.obs.audit import Auditor

            self._auditor = Auditor(audit)
        self._shards = _resolve_shards(shards)
        self._sharded: "ShardedIndex | None" = None
        self._executor = _resolve_executor(executor)
        #: Process worker pool bound to the current sealed index (built
        #: lazily by the first process-path query; invalidated like
        #: ``_sharded``).  ``_proc_unavailable`` latches a failed pool
        #: start so unavailable environments pay the probe only once.
        self._procpool = None
        self._procpool_base: "PackedIndex | None" = None
        self._proc_unavailable = False
        self.cache_config = cache if cache is not None else CacheConfig()
        self._plan_cache = LRUCache(self.cache_config.plan_capacity)
        self._result_cache = LRUCache(self.cache_config.result_capacity)
        #: Monotone index version: bumped by every mutation, part of
        #: every cache key, so stale entries are unreachable by design.
        self._generation = 0

    # -- corpus management ---------------------------------------------------

    def add(self, text: str, title: str = "") -> int:
        """Analyze and add one document; returns its id.

        On an engine opened on a durable store (:meth:`open`), the
        analyzed document is also appended to the store's write-ahead
        log before this returns, so it survives a crash that happens
        before the next :meth:`checkpoint`.
        """
        doc = self.collection.add_text(text, title)
        self._index = None
        self._sharded = None
        self._close_procpool()
        self._generation += 1
        if self._store is not None:
            from repro.corpus.io import document_record

            self._store.append_wal(
                {"seq": doc.doc_id, **document_record(doc)}
            )
        return doc.doc_id

    def add_many(self, texts: Iterable[str]) -> list[int]:
        """Analyze and add many documents; returns their assigned ids.

        Accepts any iterable of strings (generator, tuple, ...),
        mirroring :meth:`add`.
        """
        return [self.add(text) for text in texts]

    @property
    def index(self) -> "PackedIndex":
        """The index: as loaded from or last written to a store
        generation, else built from the collection on first use and
        after any mutation."""
        if self._index is None:
            self._index = build_index(self.collection)
        return self._index

    @property
    def shards(self) -> int:
        """Shard count used for plan execution (1 = unsharded)."""
        return self._shards

    @shards.setter
    def shards(self, value: int) -> None:
        self._shards = _resolve_shards(value)
        self._sharded = None
        # A pool built for the old shard count is useless; let the next
        # process-path query rebuild one sized to the new layout.
        self._close_procpool()

    @property
    def executor(self) -> str:
        """Sharded execution driver: serial or process."""
        return self._executor

    @executor.setter
    def executor(self, value: str) -> None:
        self._executor = _resolve_executor(value)
        self._proc_unavailable = False
        if self._executor != "process":
            self._close_procpool()

    def _sharded_index(self) -> "ShardedIndex":
        """The sharded view of the current index (rebuilt after
        mutations — `base is` comparison catches lazy index rebuilds)."""
        index = self.index
        if (
            self._sharded is None
            or self._sharded.base is not index
            or self._sharded.num_shards != self._shards
        ):
            from repro.index.shard import ShardedIndex

            self._sharded = ShardedIndex(index, self._shards)
        return self._sharded

    def _close_procpool(self) -> None:
        """Shut the process pool down and unlink its shared segment.

        Idempotent; called on every invalidation point (mutation, shard
        or executor change, :meth:`close`).  A pool that is never
        explicitly closed is still reclaimed by its GC finalizer, so
        this is about promptness, not correctness.
        """
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None
            self._procpool_base = None

    def _process_pool(self):
        """The worker pool bound to the current sealed index, or None.

        Started lazily by the first process-path query; a rebuilt index,
        a changed shard count or a pool retired after its workers died
        invalidates it the way a mutation invalidates ``_sharded``.
        None — the query runs in-process — once a start has failed: the
        failure is latched so the probe runs once.
        """
        index = self.index
        if self._procpool is not None and (
            self._procpool_base is not index
            or self._procpool.num_shards != self._shards
            or self._procpool.closed
        ):
            self._close_procpool()
        if self._procpool is None and not self._proc_unavailable:
            from repro.exec.procpool import ProcPoolUnavailableError, start_pool

            try:
                self._procpool = start_pool(index, self._shards)
            except ProcPoolUnavailableError as exc:
                self._proc_unavailable = True
                note_fallback("pool_unavailable", exc)
                return None
            self._procpool_base = index
        return self._procpool

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of both cache tiers (JSON-ready)."""
        return {
            "plan": self._plan_cache.stats(),
            "result": self._result_cache.stats(),
        }

    @property
    def qlog(self):
        """The attached structured query log (``None`` when unset).

        Settable after construction so serving layers can attach a log
        to engines they load themselves (``QueryService`` wires its
        ``--qlog`` path through here on every generation swap)."""
        return self._qlog

    @qlog.setter
    def qlog(self, value) -> None:
        self._qlog = value

    def scoring_context(self) -> ScoringContext:
        if self._ctx_override is not None:
            return self._ctx_override
        return IndexScoringContext(self.index)

    # -- querying --------------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse shorthand query text with this engine's analyzer."""
        return parse_query(text, self.collection.analyzer)

    def search(
        self,
        query: str | Query,
        scheme: str | ScoringScheme = "sumbest",
        top_k: int | None = None,
        optimize: bool = True,
        options: OptimizerOptions | None = None,
        limits: QueryLimits | None = None,
        faults: "FaultInjector | None" = None,
        profile: bool = False,
    ) -> SearchOutcome:
        """Rank the collection for ``query`` under ``scheme``.

        Args:
            query: Shorthand text or a pre-built :class:`Query`.
            scheme: Scoring scheme name or instance.
            top_k: Truncate to the k best documents (must be >= 1).
            optimize: False executes the canonical score-isolated plan
                (useful for verification; potentially very slow).
            options: Optimizer toggles (benchmarking individual rewrites).
            limits: Resource limits (deadline, row budget, per-document
                match cap).  With ``on_limit="error"`` a tripped limit
                raises :class:`repro.errors.ResourceExhaustedError` (or
                its :class:`repro.errors.QueryTimeoutError` subclass);
                with ``on_limit="partial"`` the outcome carries the
                correctly-ranked prefix with ``degraded=True``.
            faults: Deterministic fault injector (robustness testing).
            profile: Attach the execution tracer: the outcome's
                ``stats`` carries the per-operator trace tree (with
                cost-model estimates annotated) and ``wall_ms`` the
                traced wall time.  Adds per-row timing overhead; off by
                default.
        """
        validate_top_k(top_k)
        # Request telemetry (docs/OBSERVABILITY.md Layer 6): one
        # contextvar read per search; every span below is a no-op
        # singleton when no request context is bound.
        rt = _telemetry_current()
        raw_query = query
        scheme_by_name = isinstance(scheme, str)
        scheme = self._resolve_scheme(scheme)

        # Cache keys exist only for (text, registry-scheme) searches —
        # pre-built Query objects and ad-hoc scheme instances have no
        # stable identity to key on.  The index generation is part of
        # every key: mutations invalidate by making old keys unreachable.
        plan_key = None
        if scheme_by_name and isinstance(raw_query, str) and self._plan_cache.capacity:
            plan_key = (
                raw_query,
                scheme.name,
                _options_key(options),
                bool(optimize),
                self._generation,
            )

        plain = (
            limits is None
            and faults is None
            and not profile
            and self._auditor is None
        )
        result_key = None
        if plan_key is not None and self._result_cache.capacity and plain:
            result_key = plan_key + (top_k,)
            with _maybe_span(rt, "plan_cache"):
                hit = self._result_cache.get(result_key)
            from repro.obs.metrics import (
                REGISTRY,
                result_cache_hits,
                result_cache_misses,
            )

            if hit is not None:
                result_cache_hits(REGISTRY).child().inc()
                if rt is not None:
                    rt.note("result_cached", True)
                started = time.perf_counter()
                outcome = self._cached_outcome(hit)
                self._record_query(
                    raw_query, scheme.name, outcome,
                    time.perf_counter() - started, top_k,
                )
                return outcome
            result_cache_misses(REGISTRY).child().inc()

        with _maybe_span(rt, "plan_cache"):
            cached_plan = (
                self._plan_cache.get(plan_key) if plan_key is not None else None
            )
        if cached_plan is not None:
            from repro.obs.metrics import REGISTRY, plan_cache_hits

            plan_cache_hits(REGISTRY).child().inc()
            query, result = cached_plan
        else:
            with _maybe_span(rt, "parse"):
                query = self._resolve_query(raw_query)
            result = None
        if rt is not None:
            rt.note("plan_cached", cached_plan is not None)
            rt.note("generation", self._generation)
        query_text = self._query_text(raw_query, query)

        if result is None:
            optimizer = Optimizer(scheme, self.index, options)
            with _maybe_span(rt, "optimize"):
                result = (
                    optimizer.optimize(query) if optimize
                    else optimizer.canonical(query)
                )
            if plan_key is not None:
                from repro.obs.metrics import REGISTRY, plan_cache_misses

                plan_cache_misses(REGISTRY).child().inc()
                self._plan_cache.put(plan_key, (query, result))

        started = time.perf_counter()
        try:
            run = run_plan(
                self.index, result.plan, scheme, result.info, self._ctx_override,
                top_k=top_k, limits=limits, profile=profile, faults=faults,
                executor=self._executor, shards=self._shards,
                sharded=self._sharded_index, pool=self._process_pool,
            )
        except GraftError:
            self._record_query(
                query_text, scheme.name, None,
                time.perf_counter() - started, top_k,
            )
            raise
        elapsed = time.perf_counter() - started
        outcome = self._outcome(
            run, list(result.applied), explain_plan(result.plan)
        )
        if run.trace_root is not None:
            from repro.obs.analyze import annotate_estimates

            annotate_estimates(run.trace_root, self.index)
            outcome.stats = run.trace_root
            outcome.wall_ms = run.wall_ms
        outcome.rewrite_log = list(result.rewrites)
        outcome.plan_cached = cached_plan is not None
        if rt is not None and outcome.shard_count:
            rt.note("shard_count", outcome.shard_count)
        if rt is not None and outcome.stats is not None:
            # Hand the profiled operator tree to the span exporter so the
            # unified trace can graft it under the execute phase span.
            rt.set_trace(outcome.stats.to_dict())
        with _maybe_span(rt, "audit"):
            self._maybe_audit(
                query, query_text, scheme, outcome, top_k, faults
            )
        self._record_query(query_text, scheme.name, outcome, elapsed, top_k)
        if outcome.audit is not None:
            self._auditor.raise_if_strict(outcome.audit)
        if result_key is not None and not outcome.degraded:
            self._result_cache.put(result_key, outcome)
        return outcome

    def _cached_outcome(self, cached: SearchOutcome) -> SearchOutcome:
        """A fresh outcome from a result-cache entry.

        Results and provenance are copied from the cached outcome;
        work counters are empty because no execution happened —
        ``result_cached`` tells observers why.
        """
        return SearchOutcome(
            results=list(cached.results),
            applied_optimizations=list(cached.applied_optimizations),
            metrics=ExecutionMetrics(),
            plan_text=cached.plan_text,
            rewrite_log=list(cached.rewrite_log),
            shard_count=cached.shard_count,
            shards_pruned=cached.shards_pruned,
            executor=cached.executor,
            plan_cached=True,
            result_cached=True,
        )

    def _query_text(self, raw: "str | Query", parsed: Query) -> str:
        """Shorthand text for logging/auditing, without re-unparsing on
        the fast path: only computed when an observer is attached."""
        if isinstance(raw, str):
            return raw
        if self._qlog is None and self._auditor is None:
            return ""
        from repro.mcalc.unparse import unparse

        return unparse(parsed)

    def _maybe_audit(
        self,
        query: Query,
        query_text: str,
        scheme: ScoringScheme,
        outcome: SearchOutcome,
        top_k: int | None,
        faults: "FaultInjector | None",
    ) -> None:
        """Shadow-execute the canonical plan on sampled queries.

        Degraded (limit-tripped) outcomes are a correctly-ranked
        *prefix* by design, and fault-injected runs are deliberately
        wrong — neither is auditable against the canonical plan, so
        they never consume a sampling slot.  The off path is a single
        ``is None`` check.
        """
        if self._auditor is None:
            return
        if outcome.degraded or faults is not None:
            return
        if not self._auditor.should_audit():
            return
        from repro.obs.audit import shadow_audit

        config = self._auditor.config
        outcome.audit = shadow_audit(
            self.index,
            scheme,
            query,
            [(r.doc_id, r.score) for r in outcome.results],
            ctx=self.scoring_context(),
            top_k=top_k,
            tolerance=config.tolerance,
            rewrite_log=outcome.rewrite_log,
            query_text=query_text,
            collection=self.collection,
            oracle_max_docs=config.oracle_max_docs,
        )

    def _record_query(
        self,
        query_text: str,
        scheme_name: str,
        outcome: SearchOutcome | None,
        seconds: float,
        top_k: int | None = None,
    ) -> None:
        """Fold one search into the process-wide metrics registry and
        the engine's structured query log (when attached).

        ``outcome`` is None for queries that raised; those count with
        ``status="error"`` and contribute no work counters.
        """
        from repro.obs.metrics import (
            REGISTRY,
            query_counters,
            query_seconds,
            record_execution_metrics,
        )

        if outcome is None:
            status = "error"
        elif outcome.degraded:
            status = "degraded"
        else:
            status = "ok"
        query_counters(REGISTRY).labels(scheme=scheme_name, status=status).inc()
        query_seconds(REGISTRY).child().observe(seconds)
        if outcome is not None:
            record_execution_metrics(outcome.metrics, REGISTRY)
        if self._qlog is not None:
            rt = _telemetry_current()
            self._qlog.log_query(
                query_text,
                scheme_name,
                status,
                seconds * 1000.0,
                outcome=outcome,
                top_k=top_k,
                request_id=rt.request_id if rt is not None else None,
                phase_ms=rt.phases() if rt is not None else None,
            )

    def _outcome(
        self, run: ParallelResult, applied: list[str], plan_text: str
    ) -> SearchOutcome:
        """The public outcome of one plan run (what ran, and how)."""
        degraded = run.tripped is not None
        if degraded:
            run.metrics.limit_tripped = run.tripped
            applied.append(f"limit:{run.tripped}")
        return SearchOutcome(
            results=self._wrap(run.results),
            applied_optimizations=applied,
            metrics=run.metrics,
            plan_text=plan_text,
            degraded=degraded,
            limit_hit=run.tripped,
            shard_count=run.shard_count,
            shards_pruned=run.shards_pruned,
            executor=run.executor,
        )

    def match_table(
        self, query: str | Query, limits: QueryLimits | None = None
    ) -> MatchTable:
        """Materialize the full match table of ``query`` (Section 3.2).

        Executes the canonical matching subplan; beware the O(W^Q) worst
        case of Section 6 on large collections — pass ``limits`` to bound
        the work.  With ``on_limit="partial"`` a tripped limit returns
        the rows materialized so far, with ``table.truncated`` set to the
        tripped limit's name.
        """
        query = self._resolve_query(query)
        scheme = get_scheme("sumbest")  # matching needs no scoring; any scheme
        info = make_query_info(query, scheme)
        subplan = matching_subplan(query)
        runtime = make_runtime(
            self.index, scheme, info, self.scoring_context(), limits=limits
        )
        from repro.exec.compile import compile_op

        guard = runtime.guard
        guard.start()
        governed = guard.active
        table = MatchTable(query.free_vars)
        try:
            # Compilation pulls the leaves' first doc groups, so it is
            # already governed work.
            op = compile_op(subplan, runtime)
            order = [op.schema.position_index(v) for v in query.free_vars]
            while True:
                group = pull_doc(op)
                if group is None:
                    break
                if governed:
                    guard.tick()
                doc, rows = group
                for row in rows:
                    table.rows.append((doc,) + tuple(row[i] for i in order))
        except ResourceExhaustedError:
            if guard.on_limit != "partial":
                raise
            table.truncated = guard.tripped
        return table

    def explain(
        self,
        query: str | Query,
        scheme: str | ScoringScheme = "sumbest",
        optimize: bool = True,
        options: OptimizerOptions | None = None,
        analyze: bool = False,
        trace_rules: bool = False,
    ) -> str:
        """The plan ``search`` would run, as a cost-annotated operator tree.

        ``trace_rules`` appends the optimizer's structured rewrite log —
        every rule considered, with its gate verdict and cost-model
        estimates bracketing each fired rule.  ``analyze`` actually
        *executes* the plan (full evaluation, no top-k cutoff) under the
        execution tracer and appends the EXPLAIN ANALYZE view:
        per-operator actual doc/row counts and wall time next to the
        cost model's estimates, misestimates flagged.
        """
        query = self._resolve_query(query)
        scheme = self._resolve_scheme(scheme)
        optimizer = Optimizer(scheme, self.index, options)
        result = optimizer.optimize(query) if optimize else optimizer.canonical(query)
        header = f"-- scheme: {scheme.name}; rewrites: {', '.join(result.applied) or 'none'}\n"
        sections = [header + explain_plan(result.plan, index=self.index)]
        if trace_rules:
            from repro.obs.rewrite import render_rewrite_log

            sections.append(
                "-- rewrite log\n" + render_rewrite_log(result.rewrites)
            )
        if analyze:
            from repro.obs.analyze import annotate_estimates, render_analyze

            run = run_plan(
                self.index, result.plan, scheme, result.info,
                self._ctx_override, profile=True,
            )
            annotate_estimates(run.trace_root, self.index)
            sections.append(
                "-- analyze\n"
                + render_analyze(
                    run.trace_root, total_ns=int(run.wall_ms * 1e6)
                )
            )
        return "\n\n".join(sections)

    def matches(
        self,
        query: str | Query,
        doc_id: int,
        limit: int = 5,
        limits: QueryLimits | None = None,
    ) -> list[dict[str, int | None]]:
        """Up to ``limit`` matches of ``query`` inside one document.

        Executes the matching subplan with a seek directly to the
        document, pulling matches lazily — the basis for hit highlighting
        and snippets.  Each match maps variables to offsets (None for the
        empty symbol).  ``limits`` bounds the work; with
        ``on_limit="partial"`` a tripped limit returns the matches found
        so far.
        """
        self._check_doc_id(doc_id)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise GraftError(f"limit must be a positive integer, got {limit!r}")
        query = self._resolve_query(query)
        scheme = get_scheme("sumbest")
        info = make_query_info(query, scheme)
        runtime = make_runtime(
            self.index, scheme, info, self.scoring_context(), limits=limits
        )
        from repro.exec.compile import compile_op
        from repro.exec.iterator import seek_op
        from repro.graft.rules import apply_selection_pushing
        from repro.ma.nodes import Sort

        guard = runtime.guard
        guard.start()
        subplan = apply_selection_pushing(matching_subplan(query))
        while isinstance(subplan, Sort):
            subplan = subplan.child
        out: list[dict[str, int | None]] = []
        try:
            op = compile_op(subplan, runtime)
            seek_op(op, doc_id)
            group = pull_doc(op)
            if group is None or group[0] != doc_id:
                return out
            indices = {v: op.schema.position_index(v) for v in query.free_vars}
            for row in group[1]:
                out.append({v: row[i] for v, i in indices.items()})
                if len(out) >= limit:
                    break
        except ResourceExhaustedError:
            if guard.on_limit != "partial":
                raise
        return out

    def _check_doc_id(self, doc_id: int) -> None:
        """Raise a clear error for ids outside the collection instead of
        leaking a raw KeyError/IndexError from the index or collection."""
        size = len(self.collection)
        if not isinstance(doc_id, int) or isinstance(doc_id, bool):
            raise GraftError(
                f"doc_id must be an integer, got {type(doc_id).__name__}"
            )
        if doc_id < 0 or doc_id >= size:
            raise GraftError(
                f"doc_id {doc_id} out of range for a collection of "
                f"{size} documents"
            )

    def snippet(
        self,
        query: str | Query,
        doc_id: int,
        radius: int = 4,
        limits: QueryLimits | None = None,
    ) -> str:
        """A display snippet around the document's first match."""
        found = self.matches(query, doc_id, limit=1, limits=limits)
        if not found:
            return ""
        offsets = [o for o in found[0].values() if o is not None and o >= 0]
        if not offsets:
            return ""
        return self.collection[doc_id].snippet(min(offsets), radius=radius)

    # -- persistence -------------------------------------------------------------
    #
    # Durable state lives in a crash-safe generational store
    # (repro.index.store; format spec in docs/STORAGE.md): every save is
    # an atomic checkpoint, every load verifies checksums, and an engine
    # *opened on* a store WAL-logs each added document.  All store code
    # is imported lazily, so purely in-memory engines never touch it.

    def save(self, directory=None) -> None:
        """Checkpoint the index and collection under ``directory``.

        Writes a new store generation atomically: a crash at any moment
        leaves either the previous checkpoint or the new one on disk,
        never a blend.  With no argument, checkpoints the store this
        engine was :meth:`open`\\ ed on.
        """
        import pathlib

        if directory is None:
            self.checkpoint()
            return
        if (
            self._store is not None
            and pathlib.Path(directory).resolve() == self._store.path.resolve()
        ):
            self.checkpoint()
            return
        from repro.index.store import IndexStore

        store = IndexStore(directory)
        if IndexStore.is_store(directory):
            store.read_manifest()
        with store.lock():
            self._write_generation(store)

    @classmethod
    def load(cls, directory, analyzer: Analyzer | None = None) -> "SearchEngine":
        """Restore an engine saved with :meth:`save` (read-only).

        Verifies every file's checksum against the store manifest,
        serves queries from the generation's packed index as loaded, and
        replays write-ahead-logged documents added since the last
        checkpoint; damage raises
        :class:`repro.errors.IndexCorruptionError` naming the bad file.
        A pre-store directory is loaded from its ``documents.jsonl``
        (the index is rebuilt on first use); a directory with neither a
        store nor a documents file raises
        :class:`repro.errors.IndexError_`.  Takes no lock — concurrent
        readers are always safe.
        """
        from repro.index.store import IndexStore

        if IndexStore.is_store(directory):
            return cls._load_from_store(IndexStore.open(directory), analyzer)
        engine = cls._load_documents(directory, analyzer)
        if engine is None:
            raise IndexError_(
                f"no index under {directory} (neither a store MANIFEST nor "
                f"documents.jsonl); build one with "
                f"'repro index DOCS_DIR {directory}'"
            )
        return engine

    @classmethod
    def open(
        cls,
        directory,
        analyzer: Analyzer | None = None,
        faults: "StoreFaultInjector | None" = None,
    ) -> "SearchEngine":
        """Open a durable store for writing, creating it if absent.

        The returned engine holds the store's advisory writer lock
        (released by :meth:`close`, or use the engine as a context
        manager); a second concurrent writer raises
        :class:`repro.errors.StoreLockedError`.  Every subsequent
        :meth:`add` is WAL-logged durably, and :meth:`checkpoint`
        compacts the log into a new generation.  Opening repairs crash
        residue: a torn WAL tail is truncated and stale generations are
        garbage-collected.  A pre-store directory is migrated in place
        from its ``documents.jsonl``.

        Args:
            directory: Store directory (created if missing).
            analyzer: Analyzer for a fresh store (stored collections
                re-use their saved tokens).
            faults: Crash-point injector (robustness testing only).
        """
        from repro.index.store import IndexStore

        store = IndexStore(directory, faults=faults)
        lock = store.lock().acquire()
        try:
            if IndexStore.is_store(directory):
                store.read_manifest()
                store.repair_wal()
                store.gc()
                engine = cls._load_from_store(store, analyzer)
            else:
                engine = cls._load_documents(directory, analyzer) or cls(
                    analyzer=analyzer
                )
                engine._write_generation(store)
        except BaseException:
            lock.release()
            raise
        engine._store = store
        engine._lock = lock
        engine._loaded_generation = store.manifest.generation
        return engine

    def checkpoint(self) -> str:
        """Compact WAL'd documents into a new atomic store generation.

        Requires an engine opened on a store (:meth:`open`); returns the
        new generation name.
        """
        if self._store is None:
            raise GraftError(
                "checkpoint() requires an engine opened on a store; use "
                "SearchEngine.open(directory) or save(directory)"
            )
        generation = self._write_generation(self._store)
        self._generation += 1
        self._loaded_generation = generation
        return generation

    def _write_generation(self, store: "IndexStore") -> str:
        """Checkpoint this engine's state into ``store``; returns the new
        generation name.  An engine with no index built since its last
        change serves the ``index.pk`` bytes just written from then on,
        so its next search does not pack the documents again."""
        from repro.index.packed import PackedIndex
        from repro.index.store import INDEX_FILE, engine_payload

        files = engine_payload(self._index, self.collection)
        generation = store.checkpoint(files, doc_count=len(self.collection))
        if self._index is None:
            self._index = PackedIndex(files[INDEX_FILE])
        return generation

    def close(self) -> None:
        """Detach from the store and release the writer lock.

        In-memory state stays usable; WAL'd documents are already
        durable.  No-op for engines not opened on a store.  Also shuts
        down the process worker pool (and unlinks its shared-memory
        segment) when one was built — in-memory searching still works
        afterwards, the process path just rebuilds the pool on demand.
        """
        if self._lock is not None:
            self._lock.release()
            self._lock = None
        self._store = None
        self._close_procpool()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def store_path(self) -> "pathlib.Path | None":
        """The attached store directory, or None for in-memory engines."""
        return self._store.path if self._store is not None else None

    @property
    def loaded_generation(self) -> str | None:
        """The store generation this engine's state came from.

        ``None`` for purely in-memory engines.  The query service pins
        this generation against store GC for as long as a reader serves
        it (:mod:`repro.serve`).
        """
        return self._loaded_generation

    @classmethod
    def _load_from_store(
        cls, store: "IndexStore", analyzer: Analyzer | None
    ) -> "SearchEngine":
        from repro.corpus.io import add_record, collection_from_bytes
        from repro.errors import IndexCorruptionError
        from repro.index.store import DOCS_FILE, INDEX_FILE

        blobs = store.read_all_verified()
        if DOCS_FILE not in blobs:
            raise IndexError_(f"no saved collection under {store.path}")
        docs_source = str(store.generation_dir / DOCS_FILE)
        collection = collection_from_bytes(
            blobs[DOCS_FILE], analyzer, source=docs_source
        )
        if len(collection) != store.manifest.doc_count:
            raise IndexCorruptionError(
                f"generation holds {len(collection)} documents but the "
                f"manifest records {store.manifest.doc_count}",
                path=docs_source,
            )
        # The packed index is served as loaded.  A generation from before
        # ``index.pk`` has none, and WAL'd documents postdate it: either
        # way the index is rebuilt from the collection on first use.
        index = store.load_index(blobs) if store.has_file(INDEX_FILE) else None
        replayed = store.wal_records()
        for record in replayed:
            add_record(collection, record)
        if replayed:
            from repro.obs.metrics import wal_replayed

            wal_replayed().child().inc(len(replayed))
        engine = cls(collection)
        engine._index = index if not replayed else None
        engine._loaded_generation = store.manifest.generation
        return engine

    @classmethod
    def _load_documents(
        cls, directory, analyzer: Analyzer | None
    ) -> "SearchEngine | None":
        """An engine over a pre-store directory's documents file — the
        source of truth, so the index is simply rebuilt from it on first
        use — or None when the directory has none."""
        import pathlib

        from repro.corpus.io import load_collection
        from repro.index.store import DOCS_FILE

        if not (pathlib.Path(directory) / DOCS_FILE).exists():
            return None
        return cls(load_collection(directory, analyzer))

    # -- helpers -----------------------------------------------------------------

    def _resolve_query(self, query: str | Query) -> Query:
        if isinstance(query, Query):
            return query
        if isinstance(query, str):
            return self.parse(query)
        raise GraftError(f"expected query text or Query, got {type(query).__name__}")

    @staticmethod
    def _resolve_scheme(scheme: str | ScoringScheme) -> ScoringScheme:
        if isinstance(scheme, ScoringScheme):
            return scheme
        return get_scheme(scheme)

    def _wrap(self, pairs: list[tuple[int, float]]) -> list[SearchResult]:
        out = []
        for doc_id, score in pairs:
            title = self.collection[doc_id].title if doc_id < len(self.collection) else ""
            out.append(SearchResult(doc_id, score, title))
        return out


def _resolve_option(value, option, env, default, parse, valid, want):
    """An explicit engine option, or its environment variable.

    Misconfiguration raises a typed :class:`repro.errors.ConfigError` at
    engine construction, naming the option or variable at fault — a bad
    environment value must never surface as an unhandled ``ValueError``
    from deep inside the first sharded query.
    """
    if value is None:
        raw = os.environ.get(env, "").strip()
        if not raw:
            return default
        option = env
        try:
            value = parse(raw)
        except ValueError:
            value = raw
    if not valid(value):
        raise ConfigError(f"must be {want}, got {value!r}", option=option)
    return value


def _resolve_shards(shards: int | None) -> int:
    """Validate an explicit shard count, or read ``REPRO_SHARDS``."""
    return _resolve_option(
        shards, "shards", "REPRO_SHARDS", 1, int,
        lambda n: isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        "a positive integer",
    )


_EXECUTORS = ("serial", "process")


def _resolve_executor(executor: str | None) -> str:
    """Validate an explicit executor name, or read ``REPRO_EXEC``."""
    return _resolve_option(
        executor, "executor", "REPRO_EXEC", "serial", str.lower,
        lambda name: name in _EXECUTORS,
        f"one of {', '.join(_EXECUTORS)}",
    )


def _options_key(options: OptimizerOptions | None) -> tuple | None:
    """Hashable cache-key component for the optimizer toggles."""
    if options is None:
        return None
    return dataclasses.astuple(options)
