"""Compilation of logical GRAFT plans into physical operator trees."""

from __future__ import annotations

from repro.errors import GraftError, PlanError
from repro.exec.block_ops import PreCountBlockOp, is_precount_block
from repro.exec.iterator import PhysicalOp, Runtime, _boundary_error
from repro.exec.join_ops import ForwardScanJoinOp, MergeJoinOp
from repro.exec.misc_ops import (
    AlternateElimOp,
    AntiJoinOp,
    CountOp,
    ForgetOp,
    SelectOp,
    SortOp,
)
from repro.exec.scan_ops import (
    AtomScanOp,
    PreCountScanOp,
    ScoredPreCountScanOp,
)
from repro.exec.score_ops import (
    CombinePhiOp,
    FinalizeOp,
    GroupScoreOp,
    ScoreInitOp,
)
from repro.exec.union_ops import UnionOp
from repro.graft.plan import (
    AlternateElim,
    CombinePhi,
    Finalize,
    GroupScore,
    ScoreInit,
)
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


def compile_plan(node: PlanNode, runtime: Runtime) -> PhysicalOp:
    """Recursively build the physical operator for a logical plan node.

    Three physical-level rewrites apply, none of which changes the
    logical plan.  Every maximal subtree made only of ``CA`` leaves,
    outer unions and predicate-free merge joins compiles to one
    :class:`repro.exec.block_ops.PreCountBlockOp`, which evaluates the
    subtree set-at-a-time on the leaves' term-document arrays; the
    recursion reaches such a subtree's root first, so the block it builds
    is maximal.  The eager-aggregation leaf pattern
    ``GroupScore(ScoreInit(PreCountAtom))`` compiles to a single fused
    scan (see :class:`repro.exec.scan_ops.ScoredPreCountScanOp`); it takes
    precedence over chain fusion.  Every maximal run of the remaining
    unary per-document nodes — ``ScoreInit``, ``CombinePhi``,
    ``GroupScore``, ``AlternateElim``, ``Finalize``, and ``Select`` /
    ``PositionProject`` where they sit inside such a run — compiles to
    one chain: building a
    :class:`repro.exec.misc_ops.ChainOp` stage directly over another
    makes the upper one drive both kernels in a single per-document
    loop.  The recursion below is all it takes: a run is fused because
    its operators are constructed bottom-up, each over the one below.

    When the runtime carries a :class:`repro.exec.faults.FaultInjector`,
    every compiled operator is passed through it, planting any matching
    deterministic faults; without one, operators compile unwrapped.
    Under a fault injector or a tracer nothing is blocked and every
    chain has length one, so each logical node still has its own
    physical operator to fail or to time.

    When the runtime carries a :class:`repro.obs.trace.Tracer`, every
    operator is additionally wrapped in a recording
    :class:`repro.obs.trace.TracedOp`, and the tracer's enter/exit stack
    mirrors this compilation recursion into a trace tree shaped like the
    logical plan (fused operators trace as one node).  Without a tracer,
    compilation produces the exact untraced tree.
    """
    tracer = runtime.tracer
    if tracer is None:
        op = _compile_node(node, runtime)
        if runtime.faults is not None:
            op = runtime.faults.wrap(op)
        return op
    trace_node = tracer.enter(node)
    try:
        op = _compile_node(node, runtime)
    finally:
        tracer.exit(trace_node)
    if runtime.faults is not None:
        op = runtime.faults.wrap(op)
    return tracer.wrap(op, trace_node)


def compile_op(plan: PlanNode, runtime: Runtime) -> PhysicalOp:
    """Compile a plan root behind the engine's error boundary.

    Operator construction primes cursors (pulling the leaves' first doc
    groups), so a raw failure can already happen here; execution entry
    points use this wrapper so such failures surface as
    :class:`repro.errors.ExecutionError` attributed to the operator
    closest to the fault, exactly like failures during the pull loop.
    """
    try:
        return compile_plan(plan, runtime)
    except GraftError:
        raise
    except Exception as exc:
        raise _boundary_error("operator construction", exc) from exc


def _compile_node(node: PlanNode, runtime: Runtime) -> PhysicalOp:
    if (
        runtime.tracer is None
        and runtime.faults is None
        and is_precount_block(node)
    ):
        return PreCountBlockOp(runtime, node)
    if (
        isinstance(node, GroupScore)
        and node.counts_incorporated
        and isinstance(node.child, ScoreInit)
        and node.child.scale_by_count
        and isinstance(node.child.child, PreCountAtom)
        and node.child.vars == (node.child.child.var,)
    ):
        leaf = node.child.child
        return ScoredPreCountScanOp(runtime, leaf.var, leaf.keyword)
    if isinstance(node, Atom):
        return AtomScanOp(runtime, node.var, node.keyword)
    if isinstance(node, PreCountAtom):
        return PreCountScanOp(runtime, node.var, node.keyword)
    if isinstance(node, PositionProject):
        return ForgetOp(runtime, compile_plan(node.child, runtime), node.vars)
    if isinstance(node, GroupCount):
        return CountOp(runtime, compile_plan(node.child, runtime))
    if isinstance(node, Join):
        left = compile_plan(node.left, runtime)
        right = compile_plan(node.right, runtime)
        if node.algorithm == "merge":
            return MergeJoinOp(runtime, left, right, node.predicates)
        if node.algorithm == "forward":
            return ForwardScanJoinOp(runtime, left, right, node.predicates)
        raise PlanError(f"unknown join algorithm {node.algorithm!r}")
    if isinstance(node, Union):
        return UnionOp(
            runtime,
            compile_plan(node.left, runtime),
            compile_plan(node.right, runtime),
        )
    if isinstance(node, Select):
        return SelectOp(runtime, compile_plan(node.child, runtime), node.predicates)
    if isinstance(node, Sort):
        return SortOp(runtime, compile_plan(node.child, runtime), node.sort_vars)
    if isinstance(node, AntiJoin):
        return AntiJoinOp(
            runtime,
            compile_plan(node.left, runtime),
            compile_plan(node.right, runtime),
        )
    if isinstance(node, ScoreInit):
        return ScoreInitOp(
            runtime,
            compile_plan(node.child, runtime),
            node.vars,
            node.scale_by_count,
        )
    if isinstance(node, CombinePhi):
        return CombinePhiOp(runtime, compile_plan(node.child, runtime))
    if isinstance(node, GroupScore):
        return GroupScoreOp(
            runtime, compile_plan(node.child, runtime), node.counts_incorporated
        )
    if isinstance(node, Finalize):
        return FinalizeOp(runtime, compile_plan(node.child, runtime))
    if isinstance(node, AlternateElim):
        return AlternateElimOp(runtime, compile_plan(node.child, runtime))
    raise PlanError(f"cannot compile plan node {type(node).__name__}")
