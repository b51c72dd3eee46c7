"""The scoring scheme interface: an implementation of the SA operators.

"A scoring scheme is an implementation of the operators of our scoring
algebra" (Section 4).  Schemes additionally declare the Section 5.1
properties through which the optimizer selects valid rewrites, without the
scheme developer ever needing to know the optimizer's internals.

``alpha`` is the paper's operator and all a plug-in scheme has to write.
The executor never calls it per cell: it asks for
:meth:`ScoringScheme.alpha_for` — ``alpha`` bound to one (context,
variable, keyword) — once per scored column when a plan is compiled, and
calls the bound form ``(doc_id, cell) -> score`` per cell.  The default
binding closes over ``alpha``; a scheme whose initializer reads
document-independent statistics (an idf) overrides the binding to read
them once (:class:`BoundAlphaScheme`, the built-in schemes).

Internal scores may be any Python value ("the aggregate score is a
structure, called an internal score, composed of one or more values that
are aggregated independently") — floats, tuples, whatever the scheme
needs.  Only the finalizer must produce a float.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

from repro.errors import ExecutionError
from repro.ma.match_table import ANY_POSITION
from repro.mcalc.ast import Pred, Query
from repro.sa.context import ScoringContext
from repro.sa.properties import SchemeProperties

#: Type alias for internal scores.
Score = Any

#: ``alpha`` bound to one (context, variable, keyword): ``(doc_id, cell) ->
#: score`` (see :meth:`ScoringScheme.alpha_for`).
BoundAlpha = Callable[[int, "int | None"], Score]


class ScoringScheme(ABC):
    """Abstract scoring scheme: alpha, the three combinators, and omega.

    Subclasses set :attr:`name` and :attr:`properties` as class attributes
    and implement the five operator methods.  Cells passed to
    :meth:`alpha` are an ``int`` offset, ``None`` for the empty symbol, or
    :data:`repro.ma.match_table.ANY_POSITION` for a pre-counted (position
    forgotten) occurrence; non-positional schemes treat ANY_POSITION like
    any real occurrence, positional schemes must never receive it (the
    optimizer guarantees this; :meth:`alpha` implementations may call
    :meth:`_reject_any` defensively).
    """

    name: str = "abstract"
    properties: SchemeProperties = SchemeProperties()

    # -- the six SA operators ----------------------------------------------

    @abstractmethod
    def alpha(
        self,
        ctx: ScoringContext,
        doc_id: int,
        var: str,
        keyword: str,
        offset: int | None,
    ) -> Score:
        """Step 1 (initialization): score one match-table cell."""

    def alpha_for(self, ctx: ScoringContext, var: str, keyword: str) -> BoundAlpha:
        """:meth:`alpha` bound once per (query, variable):
        ``alpha_for(ctx, var, keyword)(doc_id, cell) ==
        alpha(ctx, doc_id, var, keyword, cell)``, exactly.

        The executor binds every scored column when a plan is compiled
        and calls the result once per cell, so whatever ``alpha`` reads
        that does not depend on the document — the keyword's ``#DOCS``,
        the collection size, an idf — can be read here instead of per
        cell.  The default closes over :meth:`alpha`, which is all a
        plug-in scheme needs; the built-in schemes state their
        initializer in this form (:class:`BoundAlphaScheme`) over the
        weigher factories of :mod:`repro.sa.weighting`.  A bound alpha
        must stay a pure function of ``(doc_id, cell)``: the executor
        memoizes it per document.
        """
        alpha = self.alpha
        return lambda doc_id, cell: alpha(ctx, doc_id, var, keyword, cell)

    @abstractmethod
    def conj(self, left: Score, right: Score) -> Score:
        """The conjunctive combinator (the paper's circled slash)."""

    @abstractmethod
    def disj(self, left: Score, right: Score) -> Score:
        """The disjunctive combinator (the paper's circled v)."""

    @abstractmethod
    def alt(self, left: Score, right: Score) -> Score:
        """The alternate combinator (the paper's circled plus)."""

    @abstractmethod
    def omega(self, ctx: ScoringContext, doc_id: int, score: Score) -> float:
        """Step 3 (finalization): the final floating-point score."""

    # -- derived operations --------------------------------------------------

    def times(self, score: Score, k: int) -> Score:
        """Aggregate ``k`` equal alternate scores in one step.

        The default folds the alternate combinator ``k - 1`` times, which
        is always score-correct; schemes declaring ``alt_multiplies``
        should override with a constant-time implementation (this is the
        circled-times operator of Section 5.1).
        """
        if k < 1:
            raise ExecutionError(f"cannot aggregate {k} copies of a score")
        acc = score
        for _ in range(k - 1):
            acc = self.alt(acc, score)
        return acc

    def fold_alt(self, scores: Iterable[Score]) -> Score:
        """Left fold of the alternate combinator over ``scores``."""
        it = iter(scores)
        try:
            acc = next(it)
        except StopIteration:
            raise ExecutionError("cannot alternate-fold zero scores") from None
        for s in it:
            acc = self.alt(acc, s)
        return acc

    # -- per-query refinements ------------------------------------------------

    def positional_vars(self, query: Query) -> set[str]:
        """Columns whose positions factor into this scheme's scores for
        ``query``.

        Default: every column for positional schemes, none otherwise.
        Lucene overrides this ("Lucene is positional only for queries with
        phrase or proximity predicates" — Table 2, footnote 2).
        """
        if self.properties.positional:
            return set(query.free_vars)
        return set()

    def cell_adjust(
        self,
        ctx: ScoringContext,
        doc_id: int,
        cells: dict[str, int | None],
        predicates: tuple[Pred, ...],
    ) -> dict[str, float] | None:
        """Optional per-row positional adjustment factors (extension hook).

        Called during score initialization with the row's cells and the
        full-text predicates whose variables are all present.  Returns
        ``{var: factor}`` multipliers applied to those variables' initial
        scores, or None for no adjustment.  This is the mechanism behind
        the paper's ad-hoc Lucene proximity extension (Section 7): scores
        of imperfect proximity matches "reflect the divergence from the
        proximity parameter".
        """
        return None

    def adjusting_predicates(self, predicates: tuple[Pred, ...]) -> tuple[Pred, ...]:
        """The subset of ``predicates`` whose rows :meth:`cell_adjust`
        actually weighs — lets the engine skip the per-row hook when no
        relevant predicate is present.  Default: all of them (schemes
        overriding cell_adjust should narrow this)."""
        return predicates

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _reject_any(offset: int | None) -> None:
        if offset == ANY_POSITION:
            raise ExecutionError(
                "positional scheme received a pre-counted (forgotten) "
                "position; the optimizer should have blocked pre-counting"
            )

    def __repr__(self) -> str:
        return f"<ScoringScheme {self.name}>"


class BoundAlphaScheme(ScoringScheme):
    """A scheme that states its initializer once, in bound form.

    Subclasses implement :meth:`alpha_for`; :meth:`alpha` is that binding
    applied to a single cell, so the two cannot disagree.
    """

    def alpha(
        self,
        ctx: ScoringContext,
        doc_id: int,
        var: str,
        keyword: str,
        offset: int | None,
    ) -> Score:
        return self.alpha_for(ctx, var, keyword)(doc_id, offset)

    @abstractmethod
    def alpha_for(self, ctx: ScoringContext, var: str, keyword: str) -> BoundAlpha:
        """Step 1 (initialization), bound to one (query, variable)."""
