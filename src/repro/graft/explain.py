"""Plan pretty-printing, in the style of the paper's Plan figures."""

from __future__ import annotations

from repro.index.packed import PackedIndex
from repro.ma.nodes import PlanNode


def explain(plan: PlanNode, indent: str = "  ", index: PackedIndex | None = None) -> str:
    """Render a plan as an indented operator tree, root first.

    With an ``index``, every line is padded to a common width and
    annotated with the cost model's per-node estimates
    (``[est docs~D rows~R cost~C]``, see :mod:`repro.graft.cost`); nodes
    the model cannot estimate are annotated ``[est n/a]``.  Without an
    index the output is the bare tree, byte-identical to earlier
    releases (structural plan comparisons rely on this form).
    """
    entries: list[tuple[str, PlanNode]] = []

    def visit(node: PlanNode, depth: int) -> None:
        entries.append((f"{indent * depth}{node.label()}", node))
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    if index is None:
        return "\n".join(line for line, _ in entries)

    from repro.graft.cost import estimate

    width = max(len(line) for line, _ in entries)
    lines = []
    for line, node in entries:
        try:
            est = estimate(node, index)
            note = f"[est docs~{est.docs:.0f} rows~{est.rows:.0f} cost~{est.cost:.0f}]"
        except Exception:
            note = "[est n/a]"
        lines.append(f"{line.ljust(width)}  {note}")
    return "\n".join(lines)
