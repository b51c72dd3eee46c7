"""Execution tracing: per-operator runtime statistics as a trace tree.

When a :class:`Tracer` is attached to the runtime
(:class:`repro.exec.iterator.Runtime`), plan compilation
(:func:`repro.exec.compile.compile_plan`) wraps every physical operator
in a :class:`TracedOp` and mirrors the *logical* plan as a tree of
:class:`TraceNode` — one node per logical operator, carrying the
:class:`OpStats` its physical counterpart records while the query runs:

* ``calls`` / ``seeks`` — ``next_doc`` / ``seek_doc`` invocations;
* ``docs_out`` / ``rows_out`` — doc groups and rows actually produced
  (lazy rows a skip signal abandons are never counted — the trace shows
  work *done*, mirroring the engine's lazy billing);
* ``empty_cells`` — empty-symbol (``None``) cells among emitted
  position cells, the footprint of padded disjunctions;
* ``time_ns`` — inclusive wall time spent inside the operator and its
  subtree (exclusive time is derived at render time by subtracting the
  children, exactly like ``EXPLAIN ANALYZE`` in relational engines);
* ``tripped`` — whether a resource-limit trip surfaced through this
  operator.

Tracing is strictly opt-in: with no tracer attached, compilation wraps
nothing and execution runs the exact untraced operator tree.  The
wrapper adds roughly two ``perf_counter_ns`` calls per row when enabled,
which is why ``search --profile`` is a flag and not the default.

The fused eager-aggregation leaf (one physical scan for three logical
operators) traces as a single node labelled with both forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Iterator

from repro.errors import ResourceExhaustedError
from repro.exec.iterator import DocGroup, PhysicalOp, op_label

if TYPE_CHECKING:
    from repro.ma.nodes import PlanNode


@dataclass
class OpStats:
    """Runtime counters of one (logical) operator."""

    calls: int = 0
    seeks: int = 0
    docs_out: int = 0
    rows_out: int = 0
    empty_cells: int = 0
    time_ns: int = 0
    tripped: bool = False


@dataclass
class TraceNode:
    """One node of the trace tree, mirroring the logical plan."""

    label: str
    op_name: str = ""
    stats: OpStats = field(default_factory=OpStats)
    children: list["TraceNode"] = field(default_factory=list)
    #: The logical plan node (for cost-model annotation; not serialized).
    plan_node: "PlanNode | None" = None
    #: Cost-model estimate, attached by annotate_estimates (may stay None).
    estimate: dict | None = None

    @property
    def self_time_ns(self) -> int:
        """Exclusive time: this node minus its children (clamped at 0)."""
        children_ns = sum(c.stats.time_ns for c in self.children)
        return max(0, self.stats.time_ns - children_ns)

    @property
    def rows_in(self) -> int:
        """Rows the children actually handed upward."""
        return sum(c.stats.rows_out for c in self.children)

    def walk(self) -> Iterator["TraceNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready form (schema: ``tests/obs/trace_schema.json``)."""
        s = self.stats
        return {
            "label": self.label,
            "op": self.op_name,
            "calls": s.calls,
            "seeks": s.seeks,
            "docs_out": s.docs_out,
            "rows_out": s.rows_out,
            "empty_cells": s.empty_cells,
            "time_ms": s.time_ns / 1e6,
            "self_time_ms": self.self_time_ns / 1e6,
            "tripped": s.tripped,
            "estimate": self.estimate,
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Builds the trace tree during compilation; owns the finished root.

    Compilation calls :meth:`enter` before compiling a logical node's
    physical operator and :meth:`exit` after, so nested compilations
    stack up into the mirrored tree; :meth:`wrap` then attaches the
    recording wrapper.
    """

    def __init__(self):
        self.root: TraceNode | None = None
        self._stack: list[TraceNode] = []
        self.total_ns: int = 0
        self._started_ns: int | None = None

    def enter(self, plan_node: "PlanNode") -> TraceNode:
        node = TraceNode(label=plan_node.label(), plan_node=plan_node)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.root = node
        self._stack.append(node)
        return node

    def exit(self, node: TraceNode) -> None:
        popped = self._stack.pop()
        assert popped is node, "unbalanced tracer enter/exit"

    def wrap(self, op: PhysicalOp, node: TraceNode) -> "TracedOp":
        node.op_name = op_label(op)
        return TracedOp(op, node)

    # -- whole-query wall clock -------------------------------------------

    def begin(self) -> None:
        self._started_ns = perf_counter_ns()

    def finish(self) -> None:
        if self._started_ns is not None:
            self.total_ns = perf_counter_ns() - self._started_ns
            self._started_ns = None


class TracedOp(PhysicalOp):
    """Recording proxy around one physical operator.

    Interior operators pull through it exactly as they would through the
    wrapped operator; the proxy counts and times, and re-yields rows
    through a counting generator.  Failures pass through untouched — the
    engine's root error boundary still attributes them to the *inner*
    operator, whose frames sit below the proxy's on the traceback.
    """

    __slots__ = ("op", "op_name", "node", "schema", "_n_positions")

    def __init__(self, op: PhysicalOp, node: TraceNode):
        self.op = op
        self.op_name = op_label(op)
        self.node = node
        self.schema = op.schema
        self._n_positions = len(op.schema.positions)

    def open(self) -> None:
        self.op.open()

    def close(self) -> None:
        self.op.close()

    def next_doc(self) -> DocGroup | None:
        stats = self.node.stats
        stats.calls += 1
        start = perf_counter_ns()
        try:
            group = self.op.next_doc()
        except ResourceExhaustedError:
            stats.tripped = True
            stats.time_ns += perf_counter_ns() - start
            raise
        except BaseException:
            stats.time_ns += perf_counter_ns() - start
            raise
        stats.time_ns += perf_counter_ns() - start
        if group is None:
            return None
        stats.docs_out += 1
        doc, rows = group
        return doc, self._recording_rows(rows, stats)

    def _recording_rows(
        self, rows: Iterator[tuple], stats: OpStats
    ) -> Iterator[tuple]:
        npos = self._n_positions
        it = iter(rows)
        while True:
            start = perf_counter_ns()
            try:
                row = next(it)
            except StopIteration:
                stats.time_ns += perf_counter_ns() - start
                return
            except ResourceExhaustedError:
                stats.tripped = True
                stats.time_ns += perf_counter_ns() - start
                raise
            except BaseException:
                stats.time_ns += perf_counter_ns() - start
                raise
            stats.time_ns += perf_counter_ns() - start
            stats.rows_out += 1
            if npos:
                for cell in row[:npos]:
                    if cell is None:
                        stats.empty_cells += 1
            yield row

    def doc_floor(self) -> int | None:
        return self.op.doc_floor()

    def seek_doc(self, doc_id: int) -> None:
        stats = self.node.stats
        stats.seeks += 1
        start = perf_counter_ns()
        try:
            self.op.seek_doc(doc_id)
        finally:
            stats.time_ns += perf_counter_ns() - start
