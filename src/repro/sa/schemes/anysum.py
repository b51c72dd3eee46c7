"""AnySum: the keyword-search scheme of Terrier's DFR models and Timber.

"AnySum is a scoring scheme typical of keyword-search systems that find a
single match per document, and do not differentiate between different
positions of a term.  Thus all positions (including the empty symbol) for
a keyword have the same term weight, and consequently all matches to a
document have the same score" (Section 7).

The initializer ignores the cell entirely — it scores the (document,
keyword) pair by BM25, so an empty cell for a keyword the document happens
to contain still receives that keyword's weight, and every match of a
document scores identically.  That is what makes AnySum *constant*: one
match suffices, enabling forward-scan joins and alternate elimination
(it is the only built-in scheme with that property, as in the paper's
Figure 3 study).
"""

from __future__ import annotations

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import bm25_weigher


class AnySum(BoundAlphaScheme):
    """alpha = BM25(d, k); conj = disj = +; alt picks either argument."""

    name = "anysum"
    properties = SchemeProperties(
        directional=None,  # diagonal: sum-of-columns == any-row's-sum
        positional=False,
        constant=True,
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
        # The cell is deliberately unused: every position of the keyword —
        # and the empty symbol — carries the same (doc, keyword) weight.
        return lambda doc_id, offset: weigh(doc_id)

    def conj(self, left: float, right: float) -> float:
        return left + right

    def disj(self, left: float, right: float) -> float:
        return left + right

    def alt(self, left: float, right: float) -> float:
        # All alternate scores of a document are equal under AnySum, so
        # returning the left argument is idempotent and (on this score
        # domain) commutative.
        return left

    def omega(self, ctx: ScoringContext, doc_id: int, score: float) -> float:
        return score

    def times(self, score: float, k: int) -> float:
        return score
