"""Join reordering (Section 5.2.1).

The canonical join order follows keyword order; with index statistics in
hand, the optimizer reorders predicate-free join chains so the most
selective (shortest-postings) inputs drive the zig-zag intersection.
Chains are flattened, subtrees ordered by estimated cardinality, and the
tree rebuilt right-deep (the canonical shape).  Joins carrying predicates
are kept intact — their operand pairing is what makes the pushed
predicates evaluable — but participate in the ordering as single units.

Score aggregation is decoupled from joins, so no scoring scheme prohibits
this rule (Table 1); it runs before any scoring operators are pushed into
the matching subplan.
"""

from __future__ import annotations

from repro.graft.rules.base import map_plan
from repro.index.packed import PackedIndex
from repro.ma.nodes import (
    Atom,
    Join,
    PlanNode,
    PreCountAtom,
    Union,
)


def _estimate(node: PlanNode, index: PackedIndex) -> int:
    """Rough output cardinality driver: the most selective atom below."""
    estimates: list[int] = []
    for sub in node.walk():
        if isinstance(sub, Atom):
            estimates.append(index.total_positions(sub.keyword))
        elif isinstance(sub, PreCountAtom):
            estimates.append(index.document_frequency(sub.keyword))
    if not estimates:
        return 0
    if isinstance(node, Union):
        return sum(estimates)
    return min(estimates)


def apply_join_reordering(
    plan: PlanNode, index: PackedIndex, cost_based: bool = False
) -> PlanNode:
    """Reorder predicate-free join chains, cheapest subtree first.

    ``cost_based=True`` orders each chain by exhaustive cost estimation
    over left-deep orders (the paper's deferred future work, implemented
    in :mod:`repro.graft.cost`) instead of the rarest-first heuristic.
    """

    def rewrite(node: PlanNode) -> PlanNode:
        if not isinstance(node, Join) or node.predicates:
            return node
        # Only rewrite chain heads: a predicate-free join whose parent is
        # also a predicate-free join will be flattened into the parent's
        # chain, so handle the topmost one (map_plan is bottom-up; the
        # chain head sees already-flattened children and re-sorts — the
        # extra sorts of inner heads are redundant but harmless).
        parts = _flatten(node)
        if cost_based:
            from repro.graft.cost import best_join_order

            parts = best_join_order(parts, index)
        else:
            parts.sort(key=lambda p: _estimate(p, index))
        # Left-deep, most selective first: the accumulating (small) left
        # stream drives the zig-zag probes into each larger stream, so
        # dense inputs are only touched at the driver's documents.  (The
        # canonical plan stays right-deep, as in the paper; this is the
        # reordering optimization.)
        tree = parts[0]
        for part in parts[1:]:
            tree = Join(tree, part)
        return tree

    return map_plan(plan, rewrite)


def _flatten(node: PlanNode) -> list[PlanNode]:
    if isinstance(node, Join) and not node.predicates:
        return _flatten(node.left) + _flatten(node.right)
    return [node]


#: Rewrite-log identity of this module's rule (Table 1 row name).
RULE_NAME = "join-reordering"


def _leaf_keywords(plan: PlanNode) -> list[str]:
    return [
        n.keyword for n in plan.walk()
        if isinstance(n, (Atom, PreCountAtom))
    ]


def rule_summary(before: PlanNode, after: PlanNode) -> str:
    was, now = _leaf_keywords(before), _leaf_keywords(after)
    if was == now:
        return "join order already optimal"
    return f"reordered leaf scans: {', '.join(was)} -> {', '.join(now)}"
