"""Plan cardinality and cost estimation (future-work extension).

The paper optimizes heuristically and notes "we expect a cost-based
optimizer to outperform the heuristic optimization we used.  Cost-based
optimization is beyond the scope of this work" (Section 8).  This module
supplies the missing estimator: index-statistics-driven cardinality and
cost estimates for every logical operator, an annotated plan printer, and
an exhaustive cost-based join orderer usable in place of the heuristic
one for small queries.

The model is deliberately simple (independence assumptions, uniform
position distributions) — the classic System-R starting point:

* an Atom scan costs its positions; a pre-count scan its documents;
* a join's document count multiplies selectivities
  (``docs_l * docs_r / N``); its per-document rows multiply;
* a positional predicate keeps a fraction of combinations proportional
  to the window it allows over the average document length;
* sorts cost ``rows * log(rows per doc)``; scoring costs one alpha per
  cell plus one combinator per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graft.plan import (
    AlternateElim,
    CombinePhi,
    Finalize,
    GroupScore,
    ScoreInit,
)
from repro.index.packed import PackedIndex
from repro.ma.nodes import (
    AntiJoin,
    Atom,
    GroupCount,
    Join,
    PlanNode,
    PositionProject,
    PreCountAtom,
    Select,
    Sort,
    Union,
)
from repro.mcalc.ast import Pred


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output size and cumulative cost of a subplan.

    Attributes:
        docs: Documents with at least one output row.
        rows: Total output rows across all documents.
        cost: Abstract work units to produce them (index entries touched,
            rows combined, cells scored).
    """

    docs: float
    rows: float
    cost: float

    @property
    def rows_per_doc(self) -> float:
        return self.rows / self.docs if self.docs else 0.0


def predicate_selectivity(pred: Pred, avg_doc_length: float) -> float:
    """Fraction of position combinations a predicate keeps."""
    length = max(avg_doc_length, 1.0)
    if pred.name == "DISTANCE":
        return min(1.0, 1.0 / length)
    if pred.name in ("PROXIMITY", "WINDOW"):
        span = pred.constants[0] if pred.constants else 1
        return min(1.0, (2.0 * span) / length)
    if pred.name == "ORDER":
        return 0.5
    # Unknown / plug-in predicates: assume moderately selective.
    return 0.2


def estimate(node: PlanNode, index: PackedIndex) -> PlanEstimate:
    """Estimate output size and cost of ``node`` over ``index``."""
    n_docs = max(index.num_docs, 1)
    avg_len = index.stats.avg_doc_length

    if isinstance(node, Atom):
        docs = index.document_frequency(node.keyword)
        rows = index.total_positions(node.keyword)
        return PlanEstimate(docs, rows, cost=rows)

    if isinstance(node, PreCountAtom):
        docs = index.document_frequency(node.keyword)
        return PlanEstimate(docs, docs, cost=docs)

    if isinstance(node, PositionProject):
        child = estimate(node.child, index)
        return PlanEstimate(child.docs, child.rows, child.cost + child.rows)

    if isinstance(node, GroupCount):
        child = estimate(node.child, index)
        # Identical-row groups collapse to one row per doc per distinct
        # cell combination; after forgetting, one per doc.
        return PlanEstimate(child.docs, child.docs, child.cost + child.rows)

    if isinstance(node, Join):
        left = estimate(node.left, index)
        right = estimate(node.right, index)
        docs = left.docs * right.docs / n_docs
        rows = docs * left.rows_per_doc * right.rows_per_doc
        cost = left.cost + right.cost + rows
        selectivity = 1.0
        for pred in node.predicates:
            selectivity *= predicate_selectivity(pred, avg_len)
        return PlanEstimate(
            docs * min(1.0, selectivity * 4 + 1e-9),
            rows * selectivity,
            cost,
        )

    if isinstance(node, Union):
        left = estimate(node.left, index)
        right = estimate(node.right, index)
        docs = min(float(n_docs), left.docs + right.docs)
        rows = left.rows + right.rows
        return PlanEstimate(docs, rows, left.cost + right.cost + rows)

    if isinstance(node, Select):
        child = estimate(node.child, index)
        selectivity = 1.0
        for pred in node.predicates:
            selectivity *= predicate_selectivity(pred, avg_len)
        return PlanEstimate(
            child.docs * min(1.0, selectivity * 4 + 1e-9),
            child.rows * selectivity,
            child.cost + child.rows,
        )

    if isinstance(node, Sort):
        child = estimate(node.child, index)
        per_doc = max(child.rows_per_doc, 1.0)
        return PlanEstimate(
            child.docs, child.rows,
            child.cost + child.rows * max(1.0, math.log2(per_doc)),
        )

    if isinstance(node, AntiJoin):
        left = estimate(node.left, index)
        right = estimate(node.right, index)
        keep = max(0.0, 1.0 - right.docs / n_docs)
        return PlanEstimate(
            left.docs * keep, left.rows * keep,
            left.cost + right.cost,
        )

    if isinstance(node, ScoreInit):
        child = estimate(node.child, index)
        cells = child.rows * len(node.vars)
        return PlanEstimate(child.docs, child.rows, child.cost + cells)

    if isinstance(node, CombinePhi):
        child = estimate(node.child, index)
        return PlanEstimate(child.docs, child.rows, child.cost + child.rows)

    if isinstance(node, GroupScore):
        child = estimate(node.child, index)
        return PlanEstimate(child.docs, child.docs, child.cost + child.rows)

    if isinstance(node, AlternateElim):
        child = estimate(node.child, index)
        # Emits the first row per doc; the skip signal saves (on average)
        # the rest of each group's production, modeled as one row's worth
        # of work per document instead of the full group.
        return PlanEstimate(child.docs, child.docs,
                            child.cost - child.rows + 2 * child.docs)

    if isinstance(node, Finalize):
        child = estimate(node.child, index)
        return PlanEstimate(child.docs, child.docs, child.cost + child.docs)

    raise TypeError(f"cannot estimate {type(node).__name__}")


def explain_with_costs(plan: PlanNode, index: PackedIndex, indent: str = "  ") -> str:
    """The plan tree annotated with per-subplan estimates."""
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        e = estimate(node, index)
        lines.append(
            f"{indent * depth}{node.label()}  "
            f"[docs~{e.docs:.0f} rows~{e.rows:.0f} cost~{e.cost:.0f}]"
        )
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines)


def best_join_order(
    parts: list[PlanNode], index: PackedIndex, max_exhaustive: int = 6
) -> list[PlanNode]:
    """Cost-based ordering of a predicate-free join chain.

    Exhaustive over left-deep orders for small chains; falls back to the
    greedy cheapest-first heuristic beyond ``max_exhaustive`` inputs.
    """
    from itertools import permutations

    def chain_cost(order: tuple[PlanNode, ...]) -> float:
        tree: PlanNode = order[0]
        for part in order[1:]:
            tree = Join(tree, part)
        return estimate(tree, index).cost

    if len(parts) <= 1:
        return list(parts)
    if len(parts) > max_exhaustive:
        return sorted(parts, key=lambda p: estimate(p, index).cost)
    best = min(permutations(parts), key=chain_cost)
    return list(best)
