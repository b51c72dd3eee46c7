"""A rigid, Lucene-style search engine.

Architecture mirrors Lucene's: a fixed document-at-a-time plan — postings
intersection over sorted document-id lists (skip pointers realized as
binary-search intersection), per-document positional verification for
phrases and proximity groups, and one hard-coded scoring algorithm
(SumBest plus sloppy proximity weighting; Section 7: "excluding the
special handling of proximity predicates, the Lucene scoring scheme
coincides with SumBest").

There is no optimizer and no plug-in scoring — the engine *is* the plan.
That rigidity is the paper's foil: the GRAFT optimizer configured with the
Lucene scheme should produce comparable performance (Figure 4) while also
supporting every other scheme and predicate.
"""

from __future__ import annotations

from repro.baselines.rigid import (
    RigidCandidates,
    RigidQuery,
    best_proximity_slop,
    decompose_rigid,
    phrase_occurs,
)
from repro.index.packed import PackedIndex
from repro.mcalc.ast import Query
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.weighting import Weigher, bm25_weigher


class LuceneLikeEngine:
    """Rigid engine with hard-coded SumBest + sloppy-proximity scoring."""

    def __init__(self, index: PackedIndex, ctx: ScoringContext | None = None):
        self.index = index
        self.ctx = ctx if ctx is not None else IndexScoringContext(index)

    def search(self, query: Query, top_k: int | None = None) -> list[tuple[int, float]]:
        """Ranked (doc, score) results; raises UnsupportedQueryError for
        constructs outside Lucene's subset."""
        rigid = decompose_rigid(query)
        # Term weights are bound once per query, as in the GRAFT executor.
        weigh = {
            term: bm25_weigher(self.ctx, term) for term in rigid.all_keywords()
        }
        results = []
        for doc in RigidCandidates(self.index, rigid):
            score = self._score(rigid, doc, weigh)
            if score is not None:
                results.append((doc, score))
        results.sort(key=lambda r: (-r[1], r[0]))
        if top_k is not None:
            return results[:top_k]
        return results


    # -- scoring ---------------------------------------------------------------

    def _score(
        self, rigid: RigidQuery, doc: int, weigh: dict[str, Weigher]
    ) -> float | None:
        """SumBest + sloppy proximity; None when positional verification
        rejects the document."""
        score = 0.0
        for term in rigid.terms:
            score += weigh[term](doc)
        for group in rigid.or_groups:
            for term in group:
                if self.index.term_frequency(doc, term):
                    score += weigh[term](doc)
        for phrase in rigid.phrases:
            positions = [self.index.postings(t).positions_in(doc) for t in phrase]
            if not phrase_occurs(positions):
                return None
            for term in phrase:
                score += weigh[term](doc)
        for words, max_distance in rigid.proximities:
            positions = [self.index.postings(t).positions_in(doc) for t in words]
            slop = best_proximity_slop(positions, max_distance)
            if slop is None:
                return None
            weight = 1.0 / (1.0 + slop)
            for term in words:
                score += weigh[term](doc) * weight
        return score
