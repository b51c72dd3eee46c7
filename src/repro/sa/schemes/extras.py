"""Additional scheme instances mentioned but not itemized in Section 7.

* :class:`AnyProd` — "Terrier also uses a similar scoring scheme for
  language model scoring where the score of a match is the product (vs
  sum) of the term position scores."  Same constant/diagonal profile as
  AnySum, multiplicative combination.
* :class:`KLSum` — AnySum-profile scheme over Dirichlet-smoothed
  language-model term weights (the KL-divergence weighting of the
  paper's reference [18]), showing term weighting is orthogonal to the
  combinator structure.

Both register under their names on import of :mod:`repro.sa.schemes`.
"""

from __future__ import annotations

from repro.sa.context import ScoringContext
from repro.sa.scheme import BoundAlpha
from repro.sa.schemes.anysum import AnySum
from repro.sa.weighting import kl_divergence_weigher


class AnyProd(AnySum):
    """AnySum with multiplicative conjunction/disjunction (language-model
    style: scores multiply like probabilities)."""

    name = "anyprod"
    # Same property profile as AnySum: constant, diagonal, idempotent
    # alternate combinator; product is as commutative/associative/monotone
    # (on non-negative weights) as the sum it replaces.
    properties = AnySum.properties

    def conj(self, left: float, right: float) -> float:
        return left * right

    def disj(self, left: float, right: float) -> float:
        return left * right


class KLSum(AnySum):
    """AnySum over Dirichlet-smoothed language-model term weights."""

    name = "klsum"
    properties = AnySum.properties

    def alpha_for(self, ctx: ScoringContext, var: str, keyword: str) -> BoundAlpha:
        weigh = kl_divergence_weigher(ctx, keyword)
        return lambda doc_id, offset: weigh(doc_id)
