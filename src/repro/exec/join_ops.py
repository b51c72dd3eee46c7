"""Physical joins.

:class:`MergeJoinOp` is the zig-zag join of Section 5.2.1: both inputs are
doc-ordered and seekable, and each side's seek "signals the index scan
operator to skip directly to the value of the other join attribute", even
through several operator levels — :meth:`DocCursor.seek` propagates all
the way to the leaf scans.  Within a matching document it produces the
cross product of the two sides' rows (lazily, left-major), filtered by any
full-text predicates pushed into the join.

:class:`ForwardScanJoinOp` (Section 5.2.2) additionally emits *at most one
match per document*, found in a single forward pass; it may miss matches,
which is exactly why it is valid only for constant scoring schemes.

Score scaling: in eager-aggregation plans the join's inputs carry
pre-aggregated score columns; each side's scores are scaled by the other
side's row multiplicity (Yan & Larson), preserving the invariant that a
row's score columns aggregate exactly ``count`` match-table sub-rows.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ExecutionError
from repro.exec.iterator import (
    DocCursor,
    DocGroup,
    PhysicalOp,
    RowSchema,
    Runtime,
)
from repro.ma.match_table import ANY_POSITION
from repro.mcalc.ast import Pred
from repro.mcalc.predicates import PredicateImpl, get_predicate


class _CompiledPred:
    """A predicate bound to row positions of the output schema."""

    __slots__ = ("impl", "indices", "constants", "structural")

    def __init__(self, pred: Pred, schema: RowSchema):
        self.impl: PredicateImpl = get_predicate(pred.name)
        self.indices = tuple(schema.position_index(v) for v in pred.vars)
        self.constants = pred.constants
        self.structural = self.impl.structural

    def holds(self, row: tuple, sentence_starts: tuple[int, ...] = ()) -> bool:
        positions = tuple([row[i] for i in self.indices])
        if ANY_POSITION in positions:
            raise ExecutionError(
                "full-text predicate applied to a pre-counted column; "
                "the optimizer must not forget positions a predicate needs"
            )
        return self.impl.holds(positions, self.constants, sentence_starts)


def compile_predicates(
    predicates: tuple[Pred, ...], schema: RowSchema
) -> tuple[_CompiledPred, ...]:
    return tuple(_CompiledPred(p, schema) for p in predicates)


def conjunction(
    preds: tuple[_CompiledPred, ...],
) -> Callable[[tuple, tuple[int, ...]], bool] | None:
    """``(row, sentence_starts) -> bool`` for a conjunction of compiled
    predicates: ``None`` for the empty one, the predicate's own ``holds``
    for a single one."""
    if not preds:
        return None
    if len(preds) == 1:
        return preds[0].holds
    return lambda row, starts: all(p.holds(row, starts) for p in preds)


def any_structural(preds: tuple[_CompiledPred, ...]) -> bool:
    """Whether some predicate reads the document's sentence offsets —
    decided once per operator; documents of a plan without structural
    predicates never fetch them."""
    return any(p.structural for p in preds)


class MergeJoinOp(PhysicalOp):
    """Zig-zag natural join on the document column."""

    def __init__(
        self,
        runtime: Runtime,
        left: PhysicalOp,
        right: PhysicalOp,
        predicates: tuple[Pred, ...],
    ):
        self.runtime = runtime
        self.left = DocCursor(left)
        self.right = DocCursor(right)
        lpos, rpos = left.schema.positions, right.schema.positions
        overlap = set(lpos) & set(rpos)
        if overlap:
            raise ExecutionError(f"join inputs share position columns {overlap}")
        self.schema = RowSchema(
            positions=lpos + rpos,
            scores=left.schema.scores + right.schema.scores,
        )
        self._l_width = len(lpos)
        self._l_count = left.schema.count_index
        self._r_count = right.schema.count_index
        self._l_has_scores = bool(left.schema.scores)
        self._r_has_scores = bool(right.schema.scores)
        self._preds = compile_predicates(predicates, self.schema)
        self._structural = any_structural(self._preds)
        self._holds = conjunction(self._preds)
        # A join with neither predicates nor score columns only
        # concatenates cells and multiplies counts.
        self._plain = not self._preds and not self.schema.scores

    def next_doc(self) -> DocGroup | None:
        left, right = self.left, self.right
        guard = self.runtime.guard
        governed = guard.active
        while True:
            if governed:
                guard.tick()
            # Zig-zag both inputs until their current docs coincide.
            while True:
                lgroup = left.group
                rgroup = right.group
                if lgroup is None or rgroup is None:
                    return None
                doc = lgroup[0]
                other = rgroup[0]
                if doc < other:
                    left.seek(other)
                elif other < doc:
                    right.seek(doc)
                else:
                    break
            lrows = list(lgroup[1])
            rrows = list(rgroup[1])
            left.advance()
            right.advance()
            starts = (
                self.runtime.index.sentence_starts_of(doc)
                if self._structural
                else ()
            )
            rows = self._matches(doc, lrows, rrows, starts)
            if rows is not None:
                return doc, rows

    def _matches(
        self,
        doc: int,
        lrows: list[tuple],
        rrows: list[tuple],
        starts: tuple[int, ...],
    ) -> Iterator[tuple] | None:
        """The joint document's output rows (``None``: skip the document)."""
        if self._plain:
            return self._cross_plain(doc, lrows, rrows)
        return self._cross(doc, lrows, rrows, starts)

    def _cross_plain(
        self, doc: int, lrows: list[tuple], rrows: list[tuple]
    ) -> Iterator[tuple]:
        """:meth:`_cross` without predicates or score columns."""
        metrics = self.runtime.metrics
        guard = self.runtime.guard
        governed = guard.active
        for lrow in lrows:
            lcells = lrow[:-1]
            lcount = lrow[-1]
            for rrow in rrows:
                metrics.rows_joined += 1
                if governed:
                    guard.charge_rows()
                    guard.charge_doc_rows(doc)
                yield lcells + rrow[:-1] + (lcount * rrow[-1],)

    def _cross(
        self,
        doc: int,
        lrows: list[tuple],
        rrows: list[tuple],
        starts: tuple[int, ...] = (),
    ) -> Iterator[tuple]:
        times = self.runtime.scheme.times
        metrics = self.runtime.metrics
        guard = self.runtime.guard
        governed = guard.active
        holds = self._holds
        l_has_scores, r_has_scores = self._l_has_scores, self._r_has_scores
        lw, lc, rc = self._l_width, self._l_count, self._r_count
        for lrow in lrows:
            lcells = lrow[:lw]
            lcount = lrow[lc]
            lscores = lrow[lc + 1:]
            for rrow in rrows:
                rcount = rrow[rc]
                cells = lcells + rrow[:rc]
                if holds is not None and not holds(cells + (0,), starts):
                    if governed:
                        # Filtered combinations are still enumerated
                        # work; keep the deadline responsive here.
                        guard.tick()
                    continue
                ls = lscores
                rs = rrow[rc + 1:]
                if l_has_scores and rcount != 1:
                    ls = tuple(times(s, rcount) for s in ls)
                if r_has_scores and lcount != 1:
                    rs = tuple(times(s, lcount) for s in rs)
                metrics.rows_joined += 1
                if governed:
                    guard.charge_rows()
                    guard.charge_doc_rows(doc)
                yield cells + (lcount * rcount,) + ls + rs

    def seek_doc(self, doc_id: int) -> None:
        self.left.seek(doc_id)
        self.right.seek(doc_id)

    def doc_floor(self) -> int:
        # Both inputs moved past the handed-out document on the spot.
        return max(self.left.floor(), self.right.floor())


class ForwardScanJoinOp(MergeJoinOp):
    """Merge join that emits at most one (the first) match per document.

    When both inputs are bare position streams and the join predicates are
    binary forward-class predicates over one column from each side, the
    first match is located by the classic two-pointer forward sweep in
    ``O(|A| + |B|)``; otherwise the lazy cross product is simply abandoned
    after its first satisfying row (still a single forward pass over each
    input's materialized rows).
    """

    def _matches(
        self,
        doc: int,
        lrows: list[tuple],
        rrows: list[tuple],
        starts: tuple[int, ...],
    ) -> Iterator[tuple] | None:
        if self._can_sweep():
            row = self._sweep(lrows, rrows)
        else:
            row = next(super()._matches(doc, lrows, rrows, starts), None)
        # No match in this document: move on rather than emit an empty
        # group for every joint document.
        return iter((row,)) if row is not None else None

    #: Predicates for which the advance-the-smaller sweep is *complete*
    #: (finds a match whenever one exists): symmetric threshold predicates.
    #: If (a, b) with a <= b fails, then b - a exceeds the threshold and no
    #: later b can help, so advancing a is safe.  DISTANCE and ORDER do not
    #: have this property and use the generic first-match scan instead.
    _SWEEPABLE = frozenset({"PROXIMITY", "WINDOW"})

    def _can_sweep(self) -> bool:
        if (
            len(self._preds) != 1
            or self._l_width != 1
            or len(self.schema.positions) != 2
            or self.schema.scores
        ):
            return False
        pred = self._preds[0]
        return pred.impl.name in self._SWEEPABLE and len(pred.indices) == 2

    def _sweep(self, lrows: list[tuple], rrows: list[tuple]) -> tuple | None:
        pred = self._preds[0]
        a = [r[0] for r in lrows]
        b = [r[0] for r in rrows]
        i = j = 0
        while i < len(a) and j < len(b):
            row = (a[i], b[j], 1)
            if pred.holds(row):
                return row
            if a[i] <= b[j]:
                i += 1
            else:
                j += 1
        return None
