"""Join-Normalized weighting: the scheme of Botev et al. [7] in GRAFT form.

The original formulation distributes a tuple's score across the tuples it
joins with (``SJ(m_L, m_R) = m_L.s/|M_R| + m_R.s/|M_L|``), which depends on
intermediate-result sizes — the very dependency that makes selection
pushing score-inconsistent in score-encapsulated frameworks (Section 2).

"When implemented in the GRAFT framework, the Join-Normalized scoring
scheme does not have access to the size of intermediate results ...  To
overcome this, the scoring scheme maintains the desired statistic in the
``size`` field of the internal score structure ...  we compute the size
intermediate results would have in a canonical, score-isolated plan (i.e.
the intermediate results are subtables of the match table)" (Section 7).
With sizes carried inside scores, the scheme becomes a pure match-table
aggregation and *all* classical rewrites become score-consistent for it
(Table 3) — the paper's headline fix demonstrated.

Internal score: ``(scr, size)`` tuples.
"""

from __future__ import annotations

from repro.sa.context import ScoringContext
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.scheme import BoundAlpha, BoundAlphaScheme
from repro.sa.weighting import tfidf_meansum_weigher


def _div(num: float, den: float) -> float:
    """Size-normalized share; zero-size subtables contribute nothing."""
    return num / den if den else 0.0


class JoinNormalized(BoundAlphaScheme):
    """Score shares normalized by canonical subtable sizes."""

    name = "join-normalized"
    properties = SchemeProperties(
        # Row-first: the original [7] semantics score matches (rows) as
        # plans build them.  The conjunctive combinator alone would be
        # diagonal (column sizes are constant down a column), but the
        # paper's piecewise zero-score cases in the disjunctive combinator
        # break Definition 3 — folding a column's zeros away before or
        # after the disjunction takes different branches.  The
        # direction-invariance tests exhibit the counterexample.
        directional="row",
        positional=False,
        constant=False,
        alt_associates=Associativity.FULL,
        # (a + b, b.size) vs (b + a, a.size): commutes because alternate
        # scores always share one column and column sizes are constant
        # down a column, so a.size == b.size on the reachable domain.
        alt_commutes=True,
        alt_monotonic_increasing=True,
        alt_idempotent=False,
        alt_multiplies=True,
        conj_associates=Associativity.NONE,
        conj_commutes=True,
        conj_monotonic_increasing=True,
        disj_associates=Associativity.NONE,
        disj_commutes=True,
        disj_monotonic_increasing=True,
    )

    def alpha_for(self, ctx: ScoringContext, var: str, keyword: str) -> BoundAlpha:
        weigh = tfidf_meansum_weigher(ctx, keyword)
        tf_in = ctx.bind_term_frequency(keyword)

        def alpha(doc_id: int, offset: int | None) -> tuple[float, float]:
            occurrences = tf_in(doc_id)
            if offset is None:
                return (0.0, float(occurrences))
            return (weigh(doc_id), float(occurrences))

        return alpha

    def conj(self, left: tuple, right: tuple) -> tuple:
        scr = _div(left[0], right[1]) + _div(right[0], left[1])
        return (scr, left[1] * right[1])

    def disj(self, left: tuple, right: tuple) -> tuple:
        size = left[1] * right[1] + left[1] + right[1]
        if right[0] == 0.0:
            scr = left[0] / 2.0
        elif left[0] == 0.0:
            scr = right[0] / 2.0
        else:
            scr = _div(left[0], 2.0 * right[1]) + _div(right[0], 2.0 * left[1])
        return (scr, size)

    def alt(self, left: tuple, right: tuple) -> tuple:
        return (left[0] + right[0], right[1])

    def omega(self, ctx: ScoringContext, doc_id: int, score: tuple) -> float:
        return score[0]

    def times(self, score: tuple, k: int) -> tuple:
        return (score[0] * k, score[1])
