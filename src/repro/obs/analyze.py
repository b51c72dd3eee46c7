"""EXPLAIN ANALYZE: the trace tree rendered next to the cost model.

The rendering puts, for every operator, the cost model's *predicted*
document/row counts beside the *actual* counts the trace recorded, and
flags nodes where the prediction missed by more than
``MISESTIMATE_RATIO`` in either direction — the relational-engine
workflow for deciding whether a slow plan is the optimizer's fault or
the estimator's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.trace import TraceNode

if TYPE_CHECKING:
    from repro.index.packed import PackedIndex

#: actual/estimated rows beyond this ratio (either direction) is flagged.
MISESTIMATE_RATIO = 8.0


def annotate_estimates(root: TraceNode, index: "PackedIndex") -> None:
    """Attach cost-model estimates to every trace node that still holds
    its logical plan node.  Nodes the estimator cannot price (e.g. plug-in
    extensions) stay unannotated rather than failing the trace."""
    from repro.graft.cost import estimate

    for node in root.walk():
        if node.plan_node is None or node.estimate is not None:
            continue
        try:
            e = estimate(node.plan_node, index)
        except Exception:
            continue
        node.estimate = {"docs": e.docs, "rows": e.rows, "cost": e.cost}


def misestimate_ratio(node: TraceNode) -> float | None:
    """actual rows / estimated rows, or None when not comparable."""
    if node.estimate is None:
        return None
    est = node.estimate["rows"]
    actual = node.stats.rows_out
    if est <= 0.0:
        return None if actual == 0 else float("inf")
    return actual / est


def _flag(node: TraceNode, threshold: float) -> str:
    ratio = misestimate_ratio(node)
    if ratio is None:
        return ""
    if ratio > threshold:
        return f"  !over x{ratio:.0f}"
    if ratio < 1.0 / threshold:
        inverse = (1.0 / ratio) if ratio > 0 else float("inf")
        return f"  !under x{inverse:.0f}"
    return ""


def render_analyze(
    root: TraceNode,
    indent: str = "  ",
    threshold: float = MISESTIMATE_RATIO,
    total_ns: int | None = None,
) -> str:
    """The EXPLAIN ANALYZE view: estimates vs. actuals, root first.

    Layout is width-stable: operator labels are padded to one column so
    the estimate/actual columns line up for tests and for eyes.
    """
    entries: list[tuple[int, TraceNode]] = []

    def collect(node: TraceNode, depth: int) -> None:
        entries.append((depth, node))
        for child in node.children:
            collect(child, depth + 1)

    collect(root, 0)
    width = max(len(indent * d + n.label) for d, n in entries)
    lines = []
    for depth, node in entries:
        s = node.stats
        label = (indent * depth + node.label).ljust(width)
        if node.estimate is not None:
            e = node.estimate
            est = (f"est docs~{e['docs']:.0f} rows~{e['rows']:.0f} "
                   f"cost~{e['cost']:.0f}")
        else:
            est = "est -"
        actual = (
            f"actual docs={s.docs_out} rows={s.rows_out} "
            f"time={s.time_ns / 1e6:.3f}ms"
        )
        extras = []
        if s.empty_cells:
            extras.append(f"empty={s.empty_cells}")
        if s.seeks:
            extras.append(f"seeks={s.seeks}")
        if s.tripped:
            extras.append("TRIPPED")
        extra = (" " + " ".join(extras)) if extras else ""
        lines.append(
            f"{label}  [{est}]  ({actual}{extra}){_flag(node, threshold)}"
        )
    if total_ns is not None:
        lines.append(f"total: {total_ns / 1e6:.3f} ms")
    return "\n".join(lines)


def trace_totals(root: TraceNode) -> dict:
    """Whole-tree aggregates: what the EXPLAIN ANALYZE footer and the
    consistency tests read."""
    return {
        "operators": sum(1 for _ in root.walk()),
        "rows_out_root": root.stats.rows_out,
        "docs_out_root": root.stats.docs_out,
        "time_ms": root.stats.time_ns / 1e6,
        "tripped": any(n.stats.tripped for n in root.walk()),
    }
