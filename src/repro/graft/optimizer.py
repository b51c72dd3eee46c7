"""The property-gated heuristic optimizer (Section 8, "Plans and
Optimizer").

"Starting with a canonical plan, first the selection pushing rewrite is
applied iteratively until the plan converges.  Then either the eager
aggregation or eager counting rewrite is applied similarly.  Eager
counting is used when the scoring scheme is constant (in this case eager
counting always performs better) or if the scoring scheme does not support
eager aggregation."  We reproduce that pipeline, extended with the novel
rewrites (alternate elimination, pre-counting), sort elimination, join
reordering and (optionally) forward-scan joins — each gated by the
Table-1 validity matrix against the scheme's declared properties.

Every gate goes through :func:`repro.graft.validity.optimization_allowed`:
the optimizer never needs to know *why* a scheme allows or forbids a
rewrite, which is precisely the isolation the paper's desideratum (4)
demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graft.canonical import QueryInfo, canonical_plan, make_query_info
from repro.graft.plan import CombinePhi, Finalize, GroupScore, ScoreInit
from repro.graft.rules import (
    RULE_SUMMARIES,
    apply_alternate_elimination,
    apply_eager_aggregation,
    apply_eager_counting,
    apply_forward_scan_joins,
    apply_join_reordering,
    apply_pre_counting,
    apply_selection_pushing,
    apply_sort_elimination,
    countable_vars,
)
from repro.graft.validity import optimization_allowed, requirement_text
from repro.index.packed import PackedIndex
from repro.ma.nodes import PlanNode, Sort
from repro.ma.translate import matching_subplan
from repro.mcalc.ast import Query
from repro.obs.rewrite import RewriteEvent
from repro.obs.telemetry import span as _telemetry_span
from repro.sa.scheme import ScoringScheme


@dataclass
class OptimizerOptions:
    """Which rewrites the optimizer may attempt.

    Validity gating still applies on top: enabling a rewrite here only
    matters when the scheme's properties allow it.  Benchmarks toggle
    these to isolate individual optimizations (Figure 3).
    """

    selection_pushing: bool = True
    join_reordering: bool = True
    eager_counting: bool = True
    pre_counting: bool = True
    eager_aggregation: bool = True
    alternate_elimination: bool = True
    sort_elimination: bool = True
    forward_scan: bool = False
    # Extension: order join chains by exhaustive cost estimation instead
    # of the rarest-first heuristic (see repro.graft.cost).
    cost_based_join_order: bool = False


@dataclass
class OptimizedResult:
    """An optimized plan plus its provenance.

    ``applied`` is the flat list of fired rule names (kept for
    benchmarks and reports); ``rewrites`` is the structured log — one
    :class:`repro.obs.rewrite.RewriteEvent` per rule the optimizer
    *considered*, including rules the validity matrix or the options
    gated off, with cost-model estimates bracketing each fired rule
    when the optimizer holds an index.
    """

    plan: PlanNode
    info: QueryInfo
    applied: list[str] = field(default_factory=list)
    rewrites: list[RewriteEvent] = field(default_factory=list)


class Optimizer:
    """Rewrites canonical score-isolated plans for a plug-in scheme."""

    def __init__(
        self,
        scheme: ScoringScheme,
        index: PackedIndex | None = None,
        options: OptimizerOptions | None = None,
    ):
        self.scheme = scheme
        self.index = index
        self.options = options if options is not None else OptimizerOptions()

    # -- gates ---------------------------------------------------------------

    def _allowed(self, name: str) -> bool:
        return optimization_allowed(name, self.scheme.properties)

    # -- pipeline ------------------------------------------------------------

    def _estimated_cost(self, plan: PlanNode) -> float | None:
        """Cost-model estimate for the rewrite log; None without an index
        (or for plan shapes the model does not cover)."""
        if self.index is None:
            return None
        try:
            from repro.graft.cost import estimate

            return estimate(plan, self.index).cost
        except Exception:
            return None

    def optimize(self, query: Query) -> OptimizedResult:
        """Produce an optimized, score-consistent plan for ``query``."""
        opts = self.options
        scheme = self.scheme
        # "canonicalize" covers building the query info and the matching
        # subplan (the paper's canonical form); the rule pipeline below
        # is the surrounding "optimize" phase.  The span reads the
        # request-telemetry contextvar and is a shared no-op when no
        # request is being traced.
        with _telemetry_span("canonicalize"):
            info = make_query_info(query, scheme)
            matching = matching_subplan(query)
        applied: list[str] = []
        rewrites: list[RewriteEvent] = []

        def skip(name: str, verdict: str, *, allowed: bool) -> None:
            rewrites.append(
                RewriteEvent(rule=name, allowed=allowed, applied=False, verdict=verdict)
            )

        def gate(name: str, enabled: bool) -> bool:
            """Record the event for a rule that will not run; True = run it."""
            if not enabled:
                skip(name, "disabled", allowed=self._allowed(name))
                return False
            if not self._allowed(name):
                skip(name, requirement_text(name), allowed=False)
                return False
            return True

        # A rule's ``before`` is usually the previous rule's ``after``:
        # each plan object is estimated once (the dict holds the plans,
        # so their ids stay theirs while it lives).
        costs: dict[int, tuple[PlanNode, float | None]] = {}

        def cost_of(plan: PlanNode) -> float | None:
            known = costs.get(id(plan))
            if known is None:
                known = costs[id(plan)] = (plan, self._estimated_cost(plan))
            return known[1]

        def fire(
            name: str, before: PlanNode, after: PlanNode, note: str = ""
        ) -> None:
            summary = RULE_SUMMARIES[name](before, after)
            if note:
                summary = f"{summary}; {note}" if summary else note
            rewrites.append(
                RewriteEvent(
                    rule=name,
                    allowed=True,
                    applied=True,
                    verdict="allowed",
                    summary=summary,
                    cost_before=cost_of(before),
                    cost_after=cost_of(after),
                )
            )

        if gate("selection-pushing", opts.selection_pushing):
            before = matching
            matching = apply_selection_pushing(matching)
            applied.append("selection-pushing")
            fire("selection-pushing", before, matching)

        if gate("join-reordering", opts.join_reordering):
            if self.index is None:
                skip("join-reordering", "no index statistics", allowed=True)
            else:
                before = matching
                matching = apply_join_reordering(
                    matching, self.index, cost_based=opts.cost_based_join_order
                )
                applied.append(
                    "join-reordering(cost)" if opts.cost_based_join_order
                    else "join-reordering"
                )
                fire(
                    "join-reordering",
                    before,
                    matching,
                    "cost-based" if opts.cost_based_join_order else "rarest-first",
                )

        counting_applied = False
        if not opts.eager_counting:
            skip("eager-counting", "disabled", allowed=True)
        elif not countable_vars(info, scheme):
            # Table 1 leaves eager counting unrestricted; the position
            # forgetting that precedes it is the per-column non-positional
            # check inside countable_vars.
            skip(
                "eager-counting",
                "no countable variables (every column positional for this query)",
                allowed=True,
            )
        else:
            before = matching
            matching = apply_eager_counting(matching, info, scheme)
            applied.append("eager-counting")
            counting_applied = True
            fire("eager-counting", before, matching)

        if gate("pre-counting", opts.pre_counting):
            if not counting_applied:
                skip("pre-counting", "eager counting did not fire", allowed=True)
            else:
                before = matching
                matching = apply_pre_counting(matching, info, scheme)
                applied.append("pre-counting")
                fire("pre-counting", before, matching)

        if gate("forward-scan-join", opts.forward_scan):
            forward = apply_forward_scan_joins(matching)
            if forward is not matching or _has_forward(forward):
                before = matching
                matching = forward
                applied.append("forward-scan-join")
                fire("forward-scan-join", before, matching)
            else:
                skip("forward-scan-join", "matched no joins", allowed=True)

        use_eager_agg = (
            opts.eager_aggregation
            and self._allowed("eager-aggregation")
            and not scheme.properties.constant
        )

        if use_eager_agg:
            plan = apply_eager_aggregation(matching, info)
            applied.append("eager-aggregation")
            applied.append("sort-elimination")
            fire("eager-aggregation", matching, plan)
            fire("sort-elimination", matching, plan, "subsumed by eager aggregation")
            skip(
                "alternate-elimination",
                "nothing to eliminate: eager aggregation already avoids "
                "materializing alternates",
                allowed=self._allowed("alternate-elimination"),
            )
            return OptimizedResult(plan, info, applied, rewrites)
        if opts.eager_aggregation and self._allowed("eager-aggregation"):
            skip(
                "eager-aggregation",
                "constant scheme: eager counting always performs better",
                allowed=True,
            )
        else:
            gate("eager-aggregation", opts.eager_aggregation)

        sort_eliminated = False
        if gate("sort-elimination", opts.sort_elimination):
            before = matching
            matching = apply_sort_elimination(matching)
            applied.append("sort-elimination")
            sort_eliminated = True
            fire("sort-elimination", before, matching)
        if not sort_eliminated and not _has_sort(matching):
            # The canonical sort must survive for non-commutative schemes.
            matching = Sort(matching, query.free_vars)

        plan = self._attach_canonical_scoring(matching, info)

        if gate("alternate-elimination", opts.alternate_elimination):
            if not sort_eliminated:
                skip(
                    "alternate-elimination",
                    "canonical sort retained (alternates meet in table order)",
                    allowed=True,
                )
            else:
                before = plan
                plan = apply_alternate_elimination(plan)
                applied.append("alternate-elimination")
                fire("alternate-elimination", before, plan)

        return OptimizedResult(plan, info, applied, rewrites)

    def canonical(self, query: Query) -> OptimizedResult:
        """The unoptimized canonical score-isolated plan."""
        with _telemetry_span("canonicalize"):
            plan, info = canonical_plan(query, self.scheme)
        return OptimizedResult(plan, info, [])

    # -- helpers ---------------------------------------------------------------

    def _attach_canonical_scoring(
        self, matching: PlanNode, info: QueryInfo
    ) -> PlanNode:
        initialized = ScoreInit(matching, info.free_vars)
        if info.direction == "row":
            return Finalize(GroupScore(CombinePhi(initialized)))
        return Finalize(CombinePhi(GroupScore(initialized)))


def _has_sort(plan: PlanNode) -> bool:
    return any(isinstance(n, Sort) for n in plan.walk())


def _has_forward(plan: PlanNode) -> bool:
    from repro.ma.nodes import Join

    return any(
        isinstance(n, Join) and n.algorithm == "forward" for n in plan.walk()
    )
