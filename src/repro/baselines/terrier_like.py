"""A rigid, Terrier-style search engine.

Terrier's DFR-family models are instances of the paper's AnySum scheme
(Section 7): every query keyword contributes its (document, keyword)
weight once, positions never matter beyond boolean verification, and the
number of matches is irrelevant.  The rigid plan is document-at-a-time
postings intersection with positional verification for the PHRASE and
PROXIMITY predicates Terrier supports.
"""

from __future__ import annotations

from repro.baselines.rigid import (
    RigidCandidates,
    RigidQuery,
    decompose_rigid,
    min_span,
    phrase_occurs,
)
from repro.index.packed import PackedIndex
from repro.mcalc.ast import Query
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.weighting import bm25_weigher


class TerrierLikeEngine:
    """Rigid engine with hard-coded AnySum (DFR-style) scoring."""

    def __init__(self, index: PackedIndex, ctx: ScoringContext | None = None):
        self.index = index
        self.ctx = ctx if ctx is not None else IndexScoringContext(index)

    def search(self, query: Query, top_k: int | None = None) -> list[tuple[int, float]]:
        rigid = decompose_rigid(query)
        # Term weights are bound once per query, as in the GRAFT executor.
        weighers = [bm25_weigher(self.ctx, kw) for kw in rigid.all_keywords()]
        results = []
        for doc in RigidCandidates(self.index, rigid):
            if not self._verify(rigid, doc):
                continue
            # AnySum: the score of any one match — the sum over all query
            # keyword columns of the (doc, keyword) weight, present or not.
            score = sum(weigh(doc) for weigh in weighers)
            results.append((doc, score))
        results.sort(key=lambda r: (-r[1], r[0]))
        if top_k is not None:
            return results[:top_k]
        return results


    def _verify(self, rigid: RigidQuery, doc: int) -> bool:
        for phrase in rigid.phrases:
            positions = [self.index.postings(t).positions_in(doc) for t in phrase]
            if not phrase_occurs(positions):
                return False
        for words, max_distance in rigid.proximities:
            positions = [self.index.postings(t).positions_in(doc) for t in words]
            span = min_span(positions)
            if span is None or span > max_distance:
                return False
        return True
