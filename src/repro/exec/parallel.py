"""The plan runner: inline, or sharded with an exact top-k merge.

One *logical* plan (optimized once, against the global index, so every
shard runs the exact plan serial execution would run) has one physical
seam, written once:

* :func:`run_plan` — what ``SearchEngine.search`` and ``repro search``
  call: inline for one shard, else sharded through :func:`run_shards`,
  and the one place a query that asked for worker processes is sent
  back to this process (counted on ``graft_proc_fallbacks_total``).
* :func:`run_shards` — the shard protocol (prune, one absolute deadline,
  split ``max_rows``, submit, collect, heap-merge, fold metrics),
  parameterized only by a *backend*: ``submit(shard, limits,
  deadline_at) -> Future`` and ``name``.  :class:`InProcessBackend` is
  here and runs the shards in this process one after another — the
  ``serial`` executor, and the tests' reference for the merge;
  :class:`repro.exec.procpool.ProcessBackend` runs them on worker
  processes (1.5x serial on graftbench).
* :func:`run_shard` — the per-shard body both backends execute over the
  shard's slice of the postings lists, scoring through the *global*
  :class:`repro.sa.context.ScoringContext`; returns one picklable
  :class:`ShardRun`.

Why the merge is exact (not approximate, unlike quantized WAND-style
distribution): shard doc ranges are disjoint and tile the collection,
and every per-document score is computed from *global* statistics
(see :mod:`repro.index.shard`), so the multiset of (doc, score) pairs
produced across shards equals the serial run's output exactly.  Each
shard returns its rows already ranked by ``(-score, doc_id)`` — the
engine's total order — and with per-shard ``top_k`` truncation the
global top k is always contained in the union of the per-shard top k's.
A k-way heap merge over the same key therefore reproduces the serial
ranking bit for bit.

Resource governance composes with sharding:

* ``deadline_ms`` is **shared**: one absolute deadline is computed when
  the query starts and installed into every shard's guard, so the whole
  query — not each shard — gets the wall-clock budget.
* ``max_rows`` is **split** across live shards (remainder to the first
  shards), keeping the total work bound within one shard-count of the
  serial bound.
* ``max_matches_per_doc`` is per-document and documents never span
  shards, so it passes through unchanged.

A shard's guard is active only when the query has limits, as in serial
execution.  Failure semantics mirror the serial engine: with
``on_limit="partial"`` each tripped shard contributes the
correctly-ranked prefix it scored and the merged outcome is flagged
degraded; with ``on_limit="error"`` (and for non-resource errors such as
operator faults) no shard is submitted after the first failed one,
queued ones are cancelled, and the first error in shard order
propagates as itself.
"""

from __future__ import annotations

import heapq
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, Future, wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from repro.exec.engine import execute, make_runtime, rank_key
from repro.exec.iterator import ExecutionMetrics, Runtime
from repro.exec.limits import QueryGuard, QueryLimits
from repro.graft.canonical import QueryInfo
from repro.index.shard import ShardedIndex, ShardView
from repro.ma.nodes import AntiJoin, Atom, PlanNode, PreCountAtom, Union
from repro.obs.telemetry import current as _telemetry_current
from repro.obs.telemetry import maybe_span as _maybe_span
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.scheme import ScoringScheme

if TYPE_CHECKING:
    from repro.exec.faults import FaultInjector
    from repro.exec.procpool import ProcessShardPool
    from repro.index.packed import PackedIndex
    from repro.obs.trace import TraceNode

def required_keywords(plan: PlanNode) -> frozenset[str]:
    """Keywords every match of ``plan`` must contain.

    Drives partition pruning: a shard where any required keyword has no
    postings provably produces no output.  The recursion is conservative
    (never claims a keyword is required unless it is):

    * leaves require their own keyword;
    * a ``Union`` match may come from either branch, so only keywords
      required by *both* branches are required;
    * an ``AntiJoin`` emits left rows only — the right branch filters
      but never produces, so only the left side's requirements count;
    * every other operator's output documents are a subset of (for
      unary operators) or the intersection of (``Join``) its children's,
      so the union of the children's requirements is required.
    """
    if isinstance(plan, (Atom, PreCountAtom)):
        return frozenset((plan.keyword,))
    if isinstance(plan, Union):
        return required_keywords(plan.left) & required_keywords(plan.right)
    if isinstance(plan, AntiJoin):
        return required_keywords(plan.left)
    out: frozenset[str] = frozenset()
    for child in plan.children():
        out |= required_keywords(child)
    return out


#: Builds one shard's guard from ``(shard_id, limits, deadline_at)``;
#: overridable for deterministic tests (e.g. a fake clock that expires
#: mid-query in exactly one shard).
GuardFactory = Callable[[int, QueryLimits | None, "float | None"], QueryGuard]


def _default_guard_factory(
    shard_id: int, limits: QueryLimits | None, deadline_at: float | None
) -> QueryGuard:
    return QueryGuard(limits, deadline_at=deadline_at)


def split_limits(
    limits: QueryLimits | None, num_shards: int
) -> list[QueryLimits | None]:
    """Split a query budget across ``num_shards`` shard guards.

    ``max_rows`` is divided evenly (remainder spread over the first
    shards, never below one row); the deadline and the per-document cap
    pass through — the deadline becomes a shared absolute instant in
    :func:`run_shards` and documents never span shards.
    """
    if limits is None or limits.max_rows is None or num_shards < 1:
        return [limits] * num_shards
    base, rem = divmod(limits.max_rows, num_shards)
    return [
        replace(limits, max_rows=max(1, base + (1 if i < rem else 0)))
        for i in range(num_shards)
    ]


def merge_ranked(
    parts: Iterable[list[tuple[int, float]]], top_k: int | None = None
) -> list[tuple[int, float]]:
    """K-way merge of per-shard rankings into the engine's total order.

    Every input list is already sorted by ``(-score, doc_id)`` (the
    order :func:`repro.exec.engine.execute` returns), so a heap merge
    is O(N log S) and — because shard doc sets are disjoint — exactly
    equals sorting the concatenation.
    """
    merged = list(heapq.merge(*parts, key=rank_key))
    if top_k is not None:
        return merged[:top_k]
    return merged


class ShardTask(NamedTuple):
    """What every shard of one query executes — small and picklable."""

    plan: PlanNode
    scheme: ScoringScheme
    info: QueryInfo
    top_k: int | None = None
    profile: bool = False


@dataclass
class ShardRun:
    """What one shard's execution produced — the one payload a backend
    returns, in this process or pickled out of a worker process."""

    shard_id: int
    lo: int
    hi: int
    rows: list[tuple[int, float]]
    wall_ms: float
    tripped: str | None
    metrics: ExecutionMetrics
    trace: "TraceNode | None" = None


@dataclass
class ParallelResult:
    """Outcome of one plan run: merged across shards, or serial."""

    results: list[tuple[int, float]]
    metrics: ExecutionMetrics
    #: First tripped limit name across shards (shard order), or None.
    tripped: str | None
    shard_count: int = 1
    shards_pruned: int = 0
    shard_runs: list[ShardRun] = field(default_factory=list)
    #: Profiling only: the operator trace tree (serial) or a synthetic
    #: root holding one per-shard subtree, and the traced wall time.
    trace_root: "TraceNode | None" = None
    wall_ms: float | None = None
    #: What actually ran the plan: ``serial`` (this process) or
    #: ``process`` (worker processes).
    executor: str = "serial"


def fold_metrics(into: ExecutionMetrics, metrics: ExecutionMetrics) -> None:
    """Fold one shard's work counters into the query-level total."""
    for kw, n in metrics.positions_by_keyword.items():
        into.count_positions(kw, n)  # positions_scanned is their sum
    into.doc_entries_scanned += metrics.doc_entries_scanned
    into.rows_grouped += metrics.rows_grouped
    into.rows_joined += metrics.rows_joined
    into.rows_charged += metrics.rows_charged


def _tracer(profile: bool):
    """A fresh execution tracer when profiling (imported on demand)."""
    if not profile:
        return None
    from repro.obs.trace import Tracer

    return Tracer()


def run_shard(
    shard: ShardView, ctx: ScoringContext, task: ShardTask, guard: QueryGuard
) -> ShardRun:
    """The per-shard body: the same code in this process and inside a
    worker process.

    ``ctx`` must be the *global* scoring context — a shard-local context
    would change idf-style weights and break the exact-merge guarantee
    (enforced by convention, not code: contexts do not know their
    index's extent).
    """
    tracer = _tracer(task.profile)
    runtime = Runtime(
        index=shard,  # type: ignore[arg-type]  # PackedIndex-shaped view
        ctx=ctx,
        scheme=task.scheme,
        info=task.info,
        guard=guard,
        tracer=tracer,
    )
    started = time.perf_counter()
    rows = execute(task.plan, runtime, top_k=task.top_k)
    wall_ms = (time.perf_counter() - started) * 1000.0
    runtime.metrics.rows_charged = guard.rows_charged
    return ShardRun(
        shard_id=shard.shard_id,
        lo=shard.lo,
        hi=shard.hi,
        rows=rows,
        wall_ms=wall_ms,
        tripped=guard.tripped,
        metrics=runtime.metrics,
        trace=tracer.root if tracer is not None else None,
    )


@dataclass
class InProcessBackend:
    """Shards in this process, one after another: each runs inside
    :meth:`submit`, which returns an already-finished future.  The only
    backend with the ``guard_factory`` test seam (a closure cannot cross
    a process boundary)."""

    ctx: ScoringContext
    task: ShardTask
    guard_factory: GuardFactory = _default_guard_factory
    name = "serial"

    def submit(
        self,
        shard: ShardView,
        limits: QueryLimits | None,
        deadline_at: float | None,
    ) -> Future:
        future: Future = Future()
        try:
            guard = self.guard_factory(shard.shard_id, limits, deadline_at)
            future.set_result(run_shard(shard, self.ctx, self.task, guard))
        except Exception as exc:  # re-raised by run_shards, in shard order
            future.set_exception(exc)
        return future


def run_shards(
    backend,
    sharded: ShardedIndex,
    task: ShardTask,
    limits: QueryLimits | None = None,
) -> ParallelResult:
    """The shard protocol, stated once for every backend.

    ``backend`` supplies ``submit(shard, limits, deadline_at) ->
    Future[ShardRun]`` and ``name``.  No shard is submitted after one
    whose future already failed, and a failure cancels what is still
    queued; the first error in shard order is raised.  A query whose
    shards are all pruned is the same path with nothing submitted: the
    provably empty result still carries its trace root under profiling
    and reaches the registry.
    """
    # Worker processes do not see the caller's contextvars, so request
    # telemetry is recorded here from the returned ShardRuns: "execute"
    # covers pruning and the fan-out, "merge" the heap merge.
    rt = _telemetry_current()
    with _maybe_span(rt, "execute"):
        live = sharded.live_shards(required_keywords(task.plan))
        deadline_at: float | None = None
        if limits is not None and limits.deadline_ms is not None:
            deadline_at = time.monotonic() + limits.deadline_ms / 1000.0
        futures: list[Future] = []
        try:
            for shard, part in zip(live, split_limits(limits, len(live))):
                future = backend.submit(shard, part, deadline_at)
                futures.append(future)
                if future.done() and future.exception() is not None:
                    break
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()  # only what has not started yet
        runs: list[ShardRun] = [future.result() for future in futures]

    if rt is not None:
        for run in runs:
            rt.add_shard(
                run.shard_id, run.wall_ms,
                rows=len(run.rows), tripped=run.tripped is not None,
            )
    with _maybe_span(rt, "merge"):
        merged = merge_ranked([run.rows for run in runs], top_k=task.top_k)
    metrics = ExecutionMetrics()
    for run in runs:
        fold_metrics(metrics, run.metrics)
    pruned = sharded.num_shards - len(live)
    _record_shard_metrics(runs, pruned, backend.name)
    return ParallelResult(
        results=merged,
        metrics=metrics,
        tripped=next(
            (run.tripped for run in runs if run.tripped is not None), None
        ),
        shard_count=sharded.num_shards,
        shards_pruned=pruned,
        shard_runs=runs,
        trace_root=(
            _build_trace_root(len(live), sharded.num_shards, merged, runs)
            if task.profile else None
        ),
        executor=backend.name,
    )


def execute_sharded(
    sharded: ShardedIndex,
    plan: PlanNode,
    scheme: ScoringScheme,
    info: QueryInfo,
    ctx: ScoringContext,
    top_k: int | None = None,
    limits: QueryLimits | None = None,
    profile: bool = False,
    guard_factory: GuardFactory | None = None,
) -> ParallelResult:
    """Run one optimized plan across all shards in this process, one
    after another, and merge the rankings (``ctx``: see
    :func:`run_shard`)."""
    task = ShardTask(plan, scheme, info, top_k, profile)
    backend = InProcessBackend(
        ctx, task, guard_factory or _default_guard_factory
    )
    return run_shards(backend, sharded, task, limits)


def note_fallback(reason: str, exc: BaseException | None = None) -> None:
    """Count one query that asked for worker processes and ran in this
    process instead, labeled by why; a pool that cannot start (``exc``)
    is also worth a warning."""
    from repro.obs.metrics import REGISTRY, proc_fallbacks

    proc_fallbacks(REGISTRY).labels(reason=reason).inc()
    if exc is not None:
        warnings.warn(
            f"process executor unavailable ({exc}); running in-process",
            RuntimeWarning,
            stacklevel=2,
        )


def _run_on_processes(
    view: ShardedIndex,
    task: ShardTask,
    limits: QueryLimits | None,
    ctx: ScoringContext | None,
    pool: "Callable[[], ProcessShardPool | None] | None",
) -> ParallelResult | None:
    """One attempt on worker processes; None means run in-process
    (same scores, just slower).  Limit trips and other
    :class:`repro.errors.GraftError` are query outcomes, not
    infrastructure failures, and propagate."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.exec.procpool import (
        ProcessBackend,
        ProcPoolUnavailableError,
        start_pool,
    )

    if ctx is not None:
        # Workers rescore from the shared index; an override stays here.
        note_fallback("ctx_override")
        return None
    procs = None
    try:
        procs = pool() if pool else start_pool(view.base, view.num_shards)
        if procs is None:  # the caller's start already failed, and said so
            return None
        return run_shards(ProcessBackend(procs, view, task), view, task, limits)
    except ProcPoolUnavailableError as exc:
        if procs is None:  # shared memory or workers cannot start
            note_fallback("pool_unavailable", exc)
        else:  # the plan or scheme cannot cross the pickle boundary
            note_fallback("submit")
        return None
    except BrokenProcessPool:
        # Workers died (OOM-kill, signal), the publication maybe with
        # them: retire the pool so the next query starts a fresh one.
        procs.close()
        note_fallback("broken_pool")
        return None
    finally:
        if pool is None and procs is not None:
            procs.close()


def run_plan(
    index: "PackedIndex",
    plan: PlanNode,
    scheme: ScoringScheme,
    info: QueryInfo,
    ctx: ScoringContext | None = None,
    *,
    top_k: int | None = None,
    limits: QueryLimits | None = None,
    profile: bool = False,
    faults: "FaultInjector | None" = None,
    executor: str = "serial",
    shards: int = 1,
    sharded: Callable[[], ShardedIndex] | None = None,
    pool: "Callable[[], ProcessShardPool | None] | None" = None,
) -> ParallelResult:
    """Execute one optimized plan; the one runner under engine and CLI.

    ``executor`` / ``shards`` are what was asked for, the result's
    ``executor`` is what ran: inline for one shard and whenever
    ``faults`` is set (fail-at-Nth-call counters are only deterministic
    when exactly one plan executes); otherwise sharded, on worker
    processes for ``process`` unless :func:`_run_on_processes` sends it
    back, else in this process one shard after another (``serial``).

    ``ctx`` is a scoring-context *override* (None: the index's own
    statistics).  ``sharded`` and ``pool`` let a long-lived caller reuse
    its sharded view and worker pool (``pool`` returns None once its
    start has failed); without them a view is cut and a one-shot pool
    started and closed here.
    """
    if shards <= 1 or faults is not None:
        tracer = _tracer(profile)
        runtime = make_runtime(
            index, scheme, info, ctx,
            limits=limits, faults=faults, tracer=tracer,
        )
        with _maybe_span(_telemetry_current(), "execute"):
            rows = execute(plan, runtime, top_k=top_k)
        runtime.metrics.rows_charged = runtime.guard.rows_charged
        result = ParallelResult(rows, runtime.metrics, runtime.guard.tripped)
        if tracer is not None:
            result.trace_root = tracer.root
            result.wall_ms = tracer.total_ns / 1e6
        return result
    started = time.perf_counter()
    view = sharded() if sharded is not None else ShardedIndex(index, shards)
    task = ShardTask(plan, scheme, info, top_k, profile)
    result = None
    if executor == "process":
        result = _run_on_processes(view, task, limits, ctx, pool)
    if result is None:
        result = execute_sharded(
            view, plan, scheme, info,
            ctx if ctx is not None else IndexScoringContext(index),
            top_k=top_k, limits=limits, profile=profile,
        )
    if profile:
        result.wall_ms = (time.perf_counter() - started) * 1000.0
    return result


def _build_trace_root(
    live_count: int,
    num_shards: int,
    merged: list,
    completed: list[ShardRun],
) -> "TraceNode":
    """The synthetic profiling root: one ``ShardExec`` child per shard run."""
    from repro.obs.trace import OpStats, TraceNode

    trace_root = TraceNode(
        label=f"parallel-merge[{live_count}/{num_shards} shards]",
        op_name="ParallelMerge",
    )
    trace_root.stats = OpStats(
        calls=1,
        docs_out=len(merged),
        rows_out=len(merged),
        time_ns=int(
            max((run.wall_ms for run in completed), default=0.0) * 1e6
        ),
    )
    for run in completed:
        if run.trace is None:
            continue
        shard_node = TraceNode(
            label=f"shard[{run.shard_id}: {run.lo}..{run.hi})",
            op_name="ShardExec",
            children=[run.trace],
        )
        shard_node.stats = OpStats(
            calls=1,
            docs_out=run.trace.stats.docs_out,
            rows_out=run.trace.stats.rows_out,
            time_ns=int(run.wall_ms * 1e6),
            tripped=run.tripped is not None,
        )
        trace_root.children.append(shard_node)
    return trace_root


def _record_shard_metrics(
    runs: list[ShardRun], pruned: int, executor: str
) -> None:
    """Fold per-shard wall times into the process-wide registry."""
    from repro.obs.metrics import (
        REGISTRY,
        proc_queries,
        shard_seconds,
        shards_executed,
        shards_pruned,
    )

    if executor == "process":
        proc_queries(REGISTRY).child().inc()
    shards_executed(REGISTRY).child().inc(len(runs))
    if pruned:
        shards_pruned(REGISTRY).child().inc(pruned)
    hist = shard_seconds(REGISTRY).child()
    for run in runs:
        hist.observe(run.wall_ms / 1000.0)
