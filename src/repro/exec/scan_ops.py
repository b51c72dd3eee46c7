"""Leaf operators: the physical Atomic Match Factories.

:class:`AtomScanOp` scans the term-position index, paying one unit of work
per position it hands downstream (lazily: positions abandoned by a skip
signal are never billed).  :class:`PreCountScanOp` scans the term-document
index, paying one unit per document — the physical source of the
pre-counting speedup of Section 5.2.3.  :class:`ScoredPreCountScanOp` is
the fused eager-aggregation leaf.  A ``CA`` leaf under a predicate-free
join or union of other ``CA`` leaves is not scanned here in an untraced
run: the whole subtree reads the term-document arrays at once as one
:class:`repro.exec.block_ops.PreCountBlockOp`; traced and fault-injected
runs keep one :class:`PreCountScanOp` per leaf.

Every scan reports its next document without reading it
(:meth:`~repro.exec.iterator.PhysicalOp.doc_floor`), so a cursor moving
past a handed-out group seeks only when the next document would fall
short of the target.

Cursors bisect the postings' ``doc_id_seq`` — a plain Python list for
position postings, a zero-copy buffer view for term-document postings
(:mod:`repro.index.postings`).  Either way a seek happens once per
zig-zag probe and indexing yields Python ints, several times cheaper
per call than NumPy searchsorted at these access patterns.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.exec.iterator import END, DocGroup, PhysicalOp, RowSchema, Runtime
from repro.ma.match_table import ANY_POSITION

_EMPTY: list[int] = []


class _Scan(PhysicalOp):
    """A scan's cursor: ``_i`` indexes the next entry of ``_doc_ids``."""

    _doc_ids: Sequence[int]
    _i: int

    def seek_doc(self, doc_id: int) -> None:
        self._i = bisect_left(self._doc_ids, doc_id, self._i)

    def doc_floor(self) -> int:
        i = self._i
        return self._doc_ids[i] if i < len(self._doc_ids) else END


class AtomScanOp(_Scan):
    """A(d, p, k): one row per occurrence of ``keyword``, doc-ordered."""

    def __init__(self, runtime: Runtime, var: str, keyword: str):
        self.runtime = runtime
        self.var = var
        self.keyword = keyword
        self.schema = RowSchema(positions=(var,))
        postings = runtime.index.postings(keyword)
        self._doc_ids = postings.doc_id_seq
        self._offsets = postings.offsets
        self._i = 0

    def next_doc(self) -> DocGroup | None:
        i = self._i
        if i >= len(self._doc_ids):
            return None
        doc = self._doc_ids[i]
        offsets = self._offsets[i]
        self._i = i + 1
        guard = self.runtime.guard
        if guard.active:
            # Budget accounting is eager per document: the group's
            # positions are charged up front even if a skip signal later
            # abandons some of them (metrics stay lazily billed).
            guard.charge_rows(len(offsets))
        return doc, self._rows(offsets)

    def _rows(self, offsets: tuple[int, ...]):
        metrics = self.runtime.metrics
        keyword = self.keyword
        for off in offsets:
            metrics.count_positions(keyword)
            yield (off, 1)


class PreCountScanOp(_Scan):
    """CA(d, p, k): one row per document containing ``keyword``, with the
    position forgotten and the row multiplicity set to #INDOC."""

    def __init__(self, runtime: Runtime, var: str, keyword: str):
        self.runtime = runtime
        self.var = var
        self.keyword = keyword
        self.schema = RowSchema(positions=(var,))
        postings = runtime.index.doc_terms.get(keyword)
        if postings is None:
            self._doc_ids = _EMPTY
            self._counts = _EMPTY
        else:
            self._doc_ids = postings.doc_id_seq
            self._counts = postings.count_seq
        self._i = 0

    def next_doc(self) -> DocGroup | None:
        i = self._i
        if i >= len(self._doc_ids):
            return None
        doc = self._doc_ids[i]
        count = self._counts[i]
        self._i = i + 1
        self.runtime.metrics.doc_entries_scanned += 1
        guard = self.runtime.guard
        if guard.active:
            guard.charge_rows()
        return doc, iter(((ANY_POSITION, count),))


class ScoredPreCountScanOp(_Scan):
    """Fusion of ``GroupScore(ScoreInit(CA))`` into one scan.

    In eager-aggregation plans every pre-counted leaf is immediately
    alpha-initialized and aggregated — but a pre-counted leaf already has
    one row per document, so the aggregate is just ``times(alpha, tf)``.
    Fusing the three operators removes two cursor layers per leaf (a
    physical-level rewrite; the logical plan is unchanged).
    """

    def __init__(self, runtime: Runtime, var: str, keyword: str):
        self.runtime = runtime
        self.var = var
        self.keyword = keyword
        self.schema = RowSchema(positions=(), scores=(var,))
        self._alpha = runtime.scheme.alpha_for(runtime.ctx, var, keyword)
        postings = runtime.index.doc_terms.get(keyword)
        if postings is None:
            self._doc_ids = _EMPTY
            self._counts = _EMPTY
        else:
            self._doc_ids = postings.doc_id_seq
            self._counts = postings.count_seq
        self._i = 0

    def next_doc(self) -> DocGroup | None:
        i = self._i
        if i >= len(self._doc_ids):
            return None
        doc = self._doc_ids[i]
        count = self._counts[i]
        self._i = i + 1
        runtime = self.runtime
        runtime.metrics.doc_entries_scanned += 1
        if runtime.guard.active:
            runtime.guard.charge_rows()
        score = self._alpha(doc, ANY_POSITION)
        if count != 1:
            score = runtime.scheme.times(score, count)
        return doc, iter(((count, score),))
