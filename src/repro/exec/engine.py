"""Plan execution entry points.

Execution is resource-governed: the runtime's
:class:`repro.exec.limits.QueryGuard` is armed when a plan starts and
checked cooperatively inside every operator's ``next_doc`` loop.  On
budget exhaustion :func:`execute` either propagates the trip
(``on_limit="error"``) or returns the correctly-ranked prefix of the
rows produced so far (``on_limit="partial"``) — callers read
``runtime.guard.tripped`` to learn whether (and why) the result was
degraded.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator

from repro.errors import GraftError, ResourceExhaustedError
from repro.exec.compile import compile_op
from repro.exec.iterator import PhysicalOp, Runtime, pull_doc
from repro.exec.limits import QueryGuard, QueryLimits
from repro.graft.canonical import QueryInfo
from repro.graft.plan import validate_plan
from repro.index.packed import PackedIndex
from repro.ma.nodes import PlanNode
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.scheme import ScoringScheme

if TYPE_CHECKING:
    from repro.exec.faults import FaultInjector
    from repro.obs.trace import Tracer


def make_runtime(
    index: PackedIndex,
    scheme: ScoringScheme,
    info: QueryInfo,
    ctx: ScoringContext | None = None,
    limits: QueryLimits | None = None,
    faults: "FaultInjector | None" = None,
    tracer: "Tracer | None" = None,
) -> Runtime:
    """Assemble the shared execution state for one plan run.

    ``limits`` installs a resource guard over the run; ``faults``
    attaches a deterministic fault injector (testing only); ``tracer``
    attaches the per-operator execution tracer
    (:mod:`repro.obs.trace`) behind EXPLAIN ANALYZE and profiling.
    """
    if ctx is None:
        ctx = IndexScoringContext(index)
    return Runtime(
        index=index,
        ctx=ctx,
        scheme=scheme,
        info=info,
        guard=QueryGuard(limits),
        faults=faults,
        tracer=tracer,
    )


def validate_top_k(top_k: int | None) -> None:
    """Reject non-positive ``top_k`` values.

    ``results[:top_k]`` with a negative k silently drops results from
    the *end* of the ranking — a classic slicing bug — so the engine
    refuses anything below 1 outright.
    """
    if top_k is None:
        return
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise GraftError(f"top_k must be a positive integer, got {top_k!r}")


def _start(plan: PlanNode, runtime: Runtime) -> tuple[PhysicalOp, int]:
    """Validate, arm the guard and compile: the plan's root operator and
    the index of its ``score`` column."""
    validate_plan(plan)
    runtime.guard.start()
    # Compilation pulls the leaves' first doc groups (DocCursor priming),
    # so it sits inside the same error boundary as the pull loop.
    root = compile_op(plan, runtime)
    return root, root.schema.score_index("score")


def execute_streaming(plan: PlanNode, runtime: Runtime) -> Iterator[tuple[int, float]]:
    """Execute a complete GRAFT plan, yielding (doc_id, score) pairs in
    ascending document order: the one pull loop, under :func:`execute`
    too.

    Under a resource guard with ``on_limit="partial"``, a tripped limit
    ends the stream early (``runtime.guard.tripped`` names the limit);
    with ``on_limit="error"`` the trip propagates.  An attached tracer
    times the stream from its first pull to its end.
    """
    guard = runtime.guard
    tracer = runtime.tracer
    if tracer is not None:
        tracer.begin()
    try:
        root, score_index = _start(plan, runtime)
        governed = guard.active
        while True:
            group = pull_doc(root)
            if group is None:
                return
            if governed:
                guard.tick()
            doc, rows = group
            for row in rows:
                yield doc, row[score_index]
    except ResourceExhaustedError:
        if guard.on_limit != "partial":
            raise
    finally:
        if tracer is not None:
            tracer.finish()


def rank_key(pair: tuple[int, float]) -> tuple[float, int]:
    """The engine's total order over ``(doc_id, score)`` pairs: descending
    score, ties by ascending document id."""
    return (-pair[1], pair[0])


def execute(
    plan: PlanNode,
    runtime: Runtime,
    top_k: int | None = None,
) -> list[tuple[int, float]]:
    """Execute a plan and return ranked results.

    Results are sorted by descending score, ties broken by ascending doc
    id; ``top_k`` (which must be >= 1) keeps the first ``k`` of that
    order — selected with a bounded heap, which is ``sorted(...)[:k]`` by
    definition, ties included.

    Under a resource guard with ``on_limit="partial"``, a tripped limit
    ends the scan early and the documents scored so far are ranked and
    returned; ``runtime.guard.tripped`` names the limit.  Every returned
    prefix is exactly ranked — degradation drops tail documents, never
    reorders scored ones.
    """
    validate_top_k(top_k)
    results = list(execute_streaming(plan, runtime))
    if top_k is not None:
        return heapq.nsmallest(top_k, results, key=rank_key)
    results.sort(key=rank_key)
    return results
