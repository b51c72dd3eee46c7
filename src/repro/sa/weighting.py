"""Term-weighting functions used by scoring initializers (Section 4.1).

"The initializer function typically implements a term weighting function
such as TF-IDF, BM25, KL Divergence" — all three are provided, in the
standard textbook formulations of Manning, Raghavan & Schuetze (the
paper's reference [18]).  :func:`tfidf_meansum` is the paper's own variant
used by the MEANSUM worked example (Example 3/5).

Each function is stated once, as a *weigher factory*: ``*_weigher(ctx,
term)`` reads the collection- and term-level statistics once and returns
``doc_id -> weight``.  A query binds one weigher per keyword
(:meth:`repro.sa.scheme.ScoringScheme.alpha_for`) and calls it once per
document; the unbound ``f(ctx, doc_id, term)`` forms bind and call in one
step, so both spell the same floating-point expression.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.sa.context import ScoringContext

#: BM25 defaults (Manning et al., Chapter 11).
BM25_K1 = 1.2
BM25_B = 0.75


#: A weigher: one term's weighting function bound to a scoring context,
#: ``doc_id -> weight``.
Weigher = Callable[[int], float]


def tfidf_meansum_weigher(ctx: ScoringContext, term: str) -> Weigher:
    """The MEANSUM tf-idf of Example 3, bound to ``term``:
    ``(#InDoc / d.length) * (d.collectionSize / #Docs)``.

    The weight is 0.0 when the term does not occur in the document or
    nowhere in the collection.
    """
    tf_in = ctx.bind_term_frequency(term)
    doc_length = ctx.doc_length
    df = ctx.document_frequency(term)
    n = ctx.collection_size()

    def weigh(doc_id: int) -> float:
        tf = tf_in(doc_id)
        length = doc_length(doc_id)
        if tf == 0 or df == 0 or length == 0:
            return 0.0
        return (tf / length) * (n / df)

    return weigh


def tfidf_weigher(ctx: ScoringContext, term: str) -> Weigher:
    """Classic log-scaled tf-idf, bound to ``term``:
    ``(1 + ln tf) * ln(N / df)``."""
    tf_in = ctx.bind_term_frequency(term)
    df = ctx.document_frequency(term)
    n = ctx.collection_size()

    def weigh(doc_id: int) -> float:
        tf = tf_in(doc_id)
        if tf == 0 or df == 0:
            return 0.0
        return (1.0 + math.log(tf)) * math.log(n / df)

    return weigh


def bm25_weigher(
    ctx: ScoringContext, term: str, k1: float = BM25_K1, b: float = BM25_B
) -> Weigher:
    """Okapi BM25 term weight with the standard smoothed idf, bound to
    ``term``.

    Everything that does not depend on the document — ``df``, ``N``, the
    idf and its logarithm, the mean length, the term's postings lookup —
    is computed here, once per (query, term); the per-document call is
    the textbook expression over ``tf`` and ``dl``, operation for
    operation what the unbound form evaluates.
    """
    tf_in = ctx.bind_term_frequency(term)
    doc_length = ctx.doc_length
    df = ctx.document_frequency(term)
    n = ctx.collection_size()
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    avg = ctx.avg_doc_length() or 1.0

    def weigh(doc_id: int) -> float:
        tf = tf_in(doc_id)
        if tf == 0:
            return 0.0
        dl = doc_length(doc_id)
        return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avg))

    return weigh


def kl_divergence_weigher(
    ctx: ScoringContext,
    term: str,
    mu: float = 2000.0,
    collection_total_tokens: int | None = None,
) -> Weigher:
    """Dirichlet-smoothed language-model (KL divergence) term weight,
    bound to ``term``.

    ``log(1 + tf / (mu * p_coll)) + log(mu / (dl + mu))`` per query-term
    occurrence; the second (document-constant) part is omitted here since
    initializers score terms independently and finalizers may normalize.
    """
    tf_in = ctx.bind_term_frequency(term)
    total = collection_total_tokens
    if total is None:
        total = max(1, ctx.collection_size() * int(ctx.avg_doc_length() or 1))
    df = max(1, ctx.document_frequency(term))
    # Collection language model estimated from document frequency when raw
    # collection term counts are unavailable.
    p_coll = df / total

    def weigh(doc_id: int) -> float:
        tf = tf_in(doc_id)
        if tf == 0:
            return 0.0
        return math.log(1.0 + tf / (mu * p_coll))

    return weigh


# -- unbound forms: one (document, term) pair at a time --------------------


def tfidf_meansum(ctx: ScoringContext, doc_id: int, term: str) -> float:
    """:func:`tfidf_meansum_weigher` for a single document."""
    return tfidf_meansum_weigher(ctx, term)(doc_id)


def tfidf(ctx: ScoringContext, doc_id: int, term: str) -> float:
    """:func:`tfidf_weigher` for a single document."""
    return tfidf_weigher(ctx, term)(doc_id)


def bm25(
    ctx: ScoringContext,
    doc_id: int,
    term: str,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> float:
    """:func:`bm25_weigher` for a single document."""
    return bm25_weigher(ctx, term, k1, b)(doc_id)


def kl_divergence(
    ctx: ScoringContext,
    doc_id: int,
    term: str,
    mu: float = 2000.0,
    collection_total_tokens: int | None = None,
) -> float:
    """:func:`kl_divergence_weigher` for a single document."""
    return kl_divergence_weigher(ctx, term, mu, collection_total_tokens)(doc_id)
