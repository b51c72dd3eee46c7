"""Outer bag-union: the physical operator behind disjunction.

Rows from each branch are padded with the empty symbol in the position
columns the branch lacks — this is where the EMPTY predicates of padded
disjuncts (Section 3.1) materialize.  In eager-aggregation plans the
branches carry pre-aggregated *score* columns; a missing score column is
padded with the alternate-fold of ``count`` copies of ``alpha(empty)``,
i.e. ``times(alpha(empty), count)``, preserving the counts-incorporated
invariant (every score column of a row aggregates exactly ``count``
match-table sub-rows).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.exec.iterator import (
    DocCursor,
    DocGroup,
    PhysicalOp,
    RowSchema,
    Runtime,
)
from repro.sa.scheme import BoundAlpha


class _BranchPad:
    """Precomputed projection of one branch's rows into the union schema."""

    def __init__(self, runtime: Runtime, branch: RowSchema, out: RowSchema):
        self.times = runtime.scheme.times
        # For each output position column: the branch row index, or None.
        self.position_map = [
            branch.positions.index(v) if v in branch.positions else None
            for v in out.positions
        ]
        self.count_index = branch.count_index
        # For each output score column: the branch score row-index, or the
        # missing variable's bound alpha, to pad with alpha(empty).
        keywords = runtime.info.var_keywords
        self.score_map: list[int | BoundAlpha] = [
            branch.score_index(v)
            if v in branch.scores
            else runtime.scheme.alpha_for(runtime.ctx, v, keywords[v])
            for v in out.scores
        ]
        self.needs_padding = any(i is None for i in self.position_map) or any(
            not isinstance(m, int) for m in self.score_map
        )

    def project(self, doc: int, rows: Iterator[tuple]) -> Iterator[tuple]:
        if not self.needs_padding:
            return rows
        return self._pad(doc, rows)

    def _pad(self, doc: int, rows: Iterator[tuple]) -> Iterator[tuple]:
        times = self.times
        position_map = self.position_map
        count_index = self.count_index
        score_map = self.score_map
        # alpha(empty) of each padded score column, once per document.
        empties = [
            None if isinstance(m, int) else m(doc, None) for m in score_map
        ]
        for row in rows:
            cells = tuple(
                [row[i] if i is not None else None for i in position_map]
            )
            count = row[count_index]
            scores = tuple([
                row[m]
                if isinstance(m, int)
                else (times(empty, count) if count != 1 else empty)
                for m, empty in zip(score_map, empties)
            ])
            yield cells + (count,) + scores


class UnionOp(PhysicalOp):
    """Outer bag-union of two doc-ordered streams (left rows first)."""

    def __init__(self, runtime: Runtime, left: PhysicalOp, right: PhysicalOp):
        self.runtime = runtime
        self.left = DocCursor(left)
        self.right = DocCursor(right)
        lpos, rpos = left.schema.positions, right.schema.positions
        lsc, rsc = left.schema.scores, right.schema.scores
        self.schema = RowSchema(
            positions=lpos + tuple(v for v in rpos if v not in lpos),
            scores=lsc + tuple(v for v in rsc if v not in lsc),
        )
        self._lpad = _BranchPad(runtime, left.schema, self.schema)
        self._rpad = _BranchPad(runtime, right.schema, self.schema)
        # Branch advancement is deferred until the emitted (lazy) row
        # iterator has been abandoned — advancing immediately would
        # invalidate the child rows the parent has not consumed yet.
        self._advance_left = False
        self._advance_right = False

    def _settle(self) -> None:
        if self._advance_left:
            self.left.advance()
            self._advance_left = False
        if self._advance_right:
            self.right.advance()
            self._advance_right = False

    def next_doc(self) -> DocGroup | None:
        self._settle()
        guard = self.runtime.guard
        if guard.active:
            guard.tick()
        dl = self.left.doc()
        dr = self.right.doc()
        if dl is None and dr is None:
            return None
        if dr is None or (dl is not None and dl < dr):
            self._advance_left = True
            return dl, self._lpad.project(dl, self.left.rows())
        if dl is None or dr < dl:
            self._advance_right = True
            return dr, self._rpad.project(dr, self.right.rows())
        # Same document in both branches: left branch's rows first.
        self._advance_left = True
        self._advance_right = True
        return dl, chain(
            self._lpad.project(dl, self.left.rows()),
            self._rpad.project(dl, self.right.rows()),
        )

    def doc_floor(self) -> int | None:
        left = self.left.floor(self._advance_left)
        right = self.right.floor(self._advance_right)
        if left is None or right is None:
            return None
        return min(left, right)

    def seek_doc(self, doc_id: int) -> None:
        # Skip the branches' handed-out groups rather than settle them:
        # settling would read the next document only to seek past it.
        if self._advance_left:
            self._advance_left = False
            self.left.skip(doc_id)
        else:
            self.left.seek(doc_id)
        if self._advance_right:
            self._advance_right = False
            self.right.skip(doc_id)
        else:
            self.right.seek(doc_id)
