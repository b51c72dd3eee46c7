"""BestSum+MinDist: proximity-aware scoring after Tao & Zhai [25].

"MinDist gives a high score to matches where two matching terms are very
close ...  BestSum+MinDist computes the score of an individual match as
the sum of the BM25 score of each term position in the match, [combined
with] the MinDist metric.  The score of a document is the score of its
highest-scoring match.  MinDist concerns term position so BestSum+MinDist
is positional" (Section 7).

Internal score: ``(scr, dist, positions)`` during row aggregation; the
alternate combinator drops the position list, keeping ``(scr, dist)``.
The finalizer is the paper's ``scr + log(1 + e^{-dist})``.
"""

from __future__ import annotations

import math

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import bm25_weigher

_INF = math.inf


def min_dist(positions: tuple[int, ...]) -> float:
    """Tao & Zhai's MinDist: smallest pairwise distance among the match's
    positions (infinite when fewer than two positions exist)."""
    if len(positions) < 2:
        return _INF
    ordered = sorted(positions)
    return float(min(b - a for a, b in zip(ordered, ordered[1:])))


class BestSumMinDist(BoundAlphaScheme):
    """Row-first, positional: best match's BM25 sum plus proximity bonus."""

    name = "bestsum-mindist"
    properties = SchemeProperties(
        directional="row",
        positional=True,
        constant=False,
        alt_associates=Associativity.FULL,
        alt_commutes=True,
        alt_monotonic_increasing=True,
        alt_idempotent=True,
        alt_multiplies=True,
        conj_associates=Associativity.FULL,
        conj_commutes=True,
        conj_monotonic_increasing=True,
        disj_associates=Associativity.FULL,
        disj_commutes=True,
        disj_monotonic_increasing=True,
    )

    def alpha_for(self, ctx: ScoringContext, var: str, keyword: str) -> BoundAlpha:
        weigh = bm25_weigher(ctx, keyword)
        reject_any = self._reject_any

        def alpha(doc_id: int, offset: int | None) -> tuple:
            if offset is None:
                return (0.0, _INF, ())
            reject_any(offset)
            return (weigh(doc_id), _INF, (offset,))

        return alpha

    def conj(self, left: tuple, right: tuple) -> tuple:
        positions = left[2] + right[2]
        return (left[0] + right[0], min_dist(positions), positions)

    def disj(self, left: tuple, right: tuple) -> tuple:
        return self.conj(left, right)

    def alt(self, left: tuple, right: tuple) -> tuple:
        # Position lists are only meaningful within a single match; across
        # matches keep the best score and tightest distance.
        return (max(left[0], right[0]), min(left[1], right[1]), ())

    def omega(self, ctx: ScoringContext, doc_id: int, score: tuple) -> float:
        bonus = math.log(1.0 + math.exp(-score[1])) if score[1] != _INF else 0.0
        return score[0] + bonus

    def times(self, score: tuple, k: int) -> tuple:
        return (score[0], score[1], ())
