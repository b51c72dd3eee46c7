"""Event Model: the probabilistic scheme of XIRQL [13] and TopX at INEX [29].

"The probabilistic event model treats the initial term weights as
probabilistic events.  The score of a match is the conjunction and/or
disjunction of the term weights according to the scoring plan, using the
standard inclusion-exclusion principle under the independence assumption.
Finally, a document score is a disjunction of the scores to all matches"
(Section 7).

Deviation from the paper's pseudocode: the pseudocode initializes with raw
BM25, but inclusion-exclusion is only meaningful on probabilities, so we
squash BM25 into [0, 1) with ``p = 1 - exp(-bm25)``.  The mapping is
strictly increasing, so term ordering — and every algebraic property — is
unchanged; recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import bm25_weigher


class EventModel(BoundAlphaScheme):
    """conj = product, disj = alt = probabilistic-or; row-first."""

    name = "event-model"
    properties = SchemeProperties(
        # The row score (product per match, OR over matches) differs from
        # any column-wise aggregation: strictly row-first.
        directional="row",
        positional=False,
        constant=False,
        alt_associates=Associativity.FULL,
        alt_commutes=True,
        alt_monotonic_increasing=True,
        alt_idempotent=False,
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
            return 1.0 - math.exp(-weigh(doc_id))

        return alpha

    def conj(self, left: float, right: float) -> float:
        return left * right

    def disj(self, left: float, right: float) -> float:
        return left + right - left * right

    def alt(self, left: float, right: float) -> float:
        return left + right - left * right

    def omega(self, ctx: ScoringContext, doc_id: int, score: float) -> float:
        return score

    def times(self, score: float, k: int) -> float:
        # OR of k independent copies: 1 - (1 - p)^k.
        return 1.0 - (1.0 - score) ** k
