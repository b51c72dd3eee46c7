"""MEANSUM: the paper's worked-example scheme (Example 3 / Example 5).

"MEANSUM defines the score of a document as the average score of all its
alternate matches, and the score of a match as the total score of the
individual positions in the match.  Term positions in MEANSUM are scored
by tfidf."

Internal score: ``(sum, count)`` pairs — "the two components of a mean
computation"; the finalizer normalizes the mean into [0, 1] with
``1 - 1/ln(mean + e)``.
"""

from __future__ import annotations

import math

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import tfidf_meansum_weigher


class MeanSum(BoundAlphaScheme):
    """Exactly the Example 3 pseudocode."""

    name = "meansum"
    properties = SchemeProperties(
        # (sum, count) aggregation satisfies Definition 3 (diagonal):
        # conjuncted scores of a table always share row counts, so
        # combining sums before or after the alternate fold is identical.
        directional=None,
        positional=False,
        constant=False,
        alt_associates=Associativity.FULL,
        alt_commutes=True,
        # Adding a low-scoring match can lower the mean: not monotonic,
        # so rank joins are not applicable to MEANSUM.
        alt_monotonic_increasing=False,
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
        weigh = tfidf_meansum_weigher(ctx, keyword)

        def alpha(doc_id: int, offset: int | None) -> tuple[float, int]:
            if offset is None:
                return (0.0, 1)
            return (weigh(doc_id), 1)

        return alpha

    def conj(self, left: tuple, right: tuple) -> tuple:
        # Conjuncted scores refer to the same set of matches, so they have
        # the same counts, which are preserved.
        return (left[0] + right[0], left[1])

    def disj(self, left: tuple, right: tuple) -> tuple:
        return (left[0] + right[0], left[1])

    def alt(self, left: tuple, right: tuple) -> tuple:
        # Alternate match sets are disjoint by definition: sums and counts
        # both add.
        return (left[0] + right[0], left[1] + right[1])

    def omega(self, ctx: ScoringContext, doc_id: int, score: tuple) -> float:
        mean = score[0] / score[1]
        return 1.0 - 1.0 / math.log(mean + math.e)

    def times(self, score: tuple, k: int) -> tuple:
        return (score[0] * k, score[1] * k)
