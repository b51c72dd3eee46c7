"""SumBest: sum over columns of the best occurrence score.

"SumBest is column-first, initializes the score of non-empty positions to
BM25 and the score of the empty symbol to 0.  It defines a column score as
the maximum score in that column, and the document score as the sum of the
column scores" (Section 7).  Excluding proximity handling, Lucene's scheme
coincides with SumBest.
"""

from __future__ import annotations

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import bm25_weigher


class SumBest(BoundAlphaScheme):
    """alpha = BM25 or 0 for empty; alt = max; conj = disj = +;
    column-first."""

    name = "sumbest"
    properties = SchemeProperties(
        # max-then-sum differs from sum-then-max: strictly column-first.
        directional="col",
        positional=False,
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

        def alpha(doc_id: int, offset: int | None) -> float:
            if offset is None:
                return 0.0
            return weigh(doc_id)

        return alpha

    def conj(self, left: float, right: float) -> float:
        return left + right

    def disj(self, left: float, right: float) -> float:
        return left + right

    def alt(self, left: float, right: float) -> float:
        return max(left, right)

    def omega(self, ctx: ScoringContext, doc_id: int, score: float) -> float:
        return score

    def times(self, score: float, k: int) -> float:
        return score
