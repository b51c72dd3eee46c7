"""Derivation of the scoring plan Phi from a query (Section 4.2.1).

The scoring plan is "a syntactic transformation of a query Psi which
provides information needed to determine column-wise subtables: the
structure of conjunctions and disjunctions between free position
variables".  The transformation:

1. erase all non-HAS predicates;
2. erase HAS predicates with quantified position variables;
3. erase all negations;
4. erase dangling local connectives;
5. replace each remaining HAS predicate with its position variable;
6. replace the remaining AND / OR with the conjunctive / disjunctive
   combinators.

Crucially, Phi is derived from the *user's* syntax tree
(``Query.source_formula``), not from any optimizer-normalized tree: "the
scoring plan is obtained from a syntax tree derived using the properties of
the selected scoring scheme", while the matching plan is free to exploit
full FO-logic equivalences.  Our Phi nodes are n-ary but evaluate as a
left-fold of the binary combinators, preserving the written order, so
non-associative and non-commutative schemes stay well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.errors import PlanError
from repro.mcalc.ast import And, Empty, Formula, Has, Not, Or, Pred, Query


class PhiNode:
    """Base class of scoring-plan nodes."""

    def variables(self) -> Iterator[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class PhiVar(PhiNode):
    """A leaf: the (already-initialized or already-aggregated) score of one
    match-table column."""

    var: str

    def variables(self) -> Iterator[str]:
        yield self.var

    def __str__(self) -> str:
        return self.var


@dataclass(frozen=True)
class PhiConj(PhiNode):
    """Conjunctive combination of child scores (the paper's circled-slash
    operator), evaluated as a left fold."""

    children: tuple[PhiNode, ...]

    def variables(self) -> Iterator[str]:
        for child in self.children:
            yield from child.variables()

    def __str__(self) -> str:
        return "(" + " (x) ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class PhiDisj(PhiNode):
    """Disjunctive combination of child scores, evaluated as a left fold."""

    children: tuple[PhiNode, ...]

    def variables(self) -> Iterator[str]:
        for child in self.children:
            yield from child.variables()

    def __str__(self) -> str:
        return "(" + " (+) ".join(str(c) for c in self.children) + ")"


def derive_scoring_plan(query: Query) -> PhiNode:
    """Derive Phi for ``query`` following the Section 4.2.1 procedure."""
    free = set(query.free_vars)
    phi = _transform(query.source_formula, free)
    if phi is None:
        raise PlanError("query has no scorable (free, positive) keywords")
    return phi


def _transform(formula: Formula, free: set[str]) -> PhiNode | None:
    if isinstance(formula, Has):
        return PhiVar(formula.var) if formula.var in free else None
    if isinstance(formula, (Empty, Pred, Not)):
        # EMPTY carries no evidence of its own (the padded variable's score
        # flows through the sibling branch's column); predicates and
        # negations are erased by the procedure.
        return None
    if isinstance(formula, (And, Or)):
        children = [_transform(op, free) for op in formula.operands]
        kept = [c for c in children if c is not None]
        if not kept:
            return None
        if len(kept) == 1:
            # Dangling connective: collapse.
            return kept[0]
        if isinstance(formula, And):
            return PhiConj(tuple(kept))
        return PhiDisj(tuple(kept))
    raise PlanError(f"unknown formula node {type(formula).__name__}")


def fold_phi(
    phi: PhiNode,
    leaf: Callable[[str], object],
    conj: Callable[[object, object], object],
    disj: Callable[[object, object], object],
) -> object:
    """Evaluate ``phi`` with the given leaf lookup and binary combinators.

    Children of n-ary nodes are combined left-to-right, preserving the
    user's written order (required for non-commutative schemes).
    """
    if isinstance(phi, PhiVar):
        return leaf(phi.var)
    if isinstance(phi, PhiConj):
        acc = fold_phi(phi.children[0], leaf, conj, disj)
        for child in phi.children[1:]:
            acc = conj(acc, fold_phi(child, leaf, conj, disj))
        return acc
    if isinstance(phi, PhiDisj):
        acc = fold_phi(phi.children[0], leaf, conj, disj)
        for child in phi.children[1:]:
            acc = disj(acc, fold_phi(child, leaf, conj, disj))
        return acc
    raise PlanError(f"unknown Phi node {type(phi).__name__}")


def compile_phi(
    phi: PhiNode,
    column_of: Callable[[str], int],
    conj: Callable[[object, object], object],
    disj: Callable[[object, object], object],
) -> Callable[[Sequence], object]:
    """Compile ``phi`` into a closure tree evaluated over rows.

    ``column_of(var)`` is the row index holding the variable's score.  The
    result maps a row to what :func:`fold_phi` returns for the leaf lookup
    ``lambda v: row[column_of(v)]`` — the same combinator calls in the
    same left-to-right order — with the tree walked once, here, instead
    of once per row.
    """
    if isinstance(phi, PhiVar):
        return itemgetter(column_of(phi.var))
    if isinstance(phi, PhiConj):
        combine = conj
    elif isinstance(phi, PhiDisj):
        combine = disj
    else:
        raise PlanError(f"unknown Phi node {type(phi).__name__}")
    first, *rest = (compile_phi(c, column_of, conj, disj) for c in phi.children)

    def node(row: Sequence) -> object:
        acc = first(row)
        for child in rest:
            acc = combine(acc, child(row))
        return acc

    return node
