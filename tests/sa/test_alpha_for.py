"""``alpha_for``: alpha bound once per (query, variable), exactly alpha.

The executor calls ``scheme.alpha_for(ctx, var, keyword)`` when a plan is
compiled and the result once per cell, so the bound form must return
*exactly* (``==``, not a tolerance) what ``alpha`` returns for every
scheme, every kind of cell and every kind of scoring context — and the
weigher factories it is built on must spell the textbook formulas.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ExecutionError
from repro.index.packed import PackedIndex, pack_index
from repro.ma.match_table import ANY_POSITION
from repro.sa.context import (
    IndexScoringContext,
    OverrideScoringContext,
    ScoringContext,
)
from repro.sa.registry import available_schemes, get_scheme
from repro.sa.scheme import BoundAlphaScheme, ScoringScheme
from repro.sa.weighting import (
    BM25_B,
    BM25_K1,
    bm25,
    bm25_weigher,
    kl_divergence,
    kl_divergence_weigher,
    tfidf,
    tfidf_meansum,
    tfidf_meansum_weigher,
    tfidf_weigher,
)

TERMS = ("quick", "fox", "dog", "lazy", "terrier", "absent-term")
CELLS = (0, 3, None, ANY_POSITION)


def contexts(tiny_index) -> dict[str, ScoringContext]:
    live = IndexScoringContext(tiny_index)
    return {
        "index": live,
        "packed": IndexScoringContext(PackedIndex(pack_index(tiny_index))),
        "override": OverrideScoringContext(
            live,
            collection_size=4_600_000,
            document_frequency={"quick": 12_000, "absent-term": 7},
            avg_doc_length=431.5,
        ),
        "override-of-override": OverrideScoringContext(
            OverrideScoringContext(live, document_frequency={"fox": 3}),
            collection_size=1000,
        ),
    }


def outcome(fn):
    """The value, or the error a positional scheme raises for a forgotten
    position — both forms must do the same."""
    try:
        return fn()
    except ExecutionError as exc:
        return ("raises", str(exc))


@pytest.mark.parametrize("kind", ["index", "packed", "override", "override-of-override"])
@pytest.mark.parametrize("name", available_schemes())
def test_bound_alpha_is_alpha(tiny_index, name, kind):
    scheme = get_scheme(name)
    ctx = contexts(tiny_index)[kind]
    for term in TERMS:
        bound = scheme.alpha_for(ctx, "p0", term)
        for doc_id in range(tiny_index.num_docs):
            for cell in CELLS:
                want = outcome(lambda: scheme.alpha(ctx, doc_id, "p0", term, cell))
                got = outcome(lambda: bound(doc_id, cell))
                assert got == want, (name, kind, term, doc_id, cell)
                if not isinstance(got, tuple):
                    assert type(got) is type(want)


def test_a_plugin_scheme_gets_the_default_binding(tiny_ctx):
    class Counting(ScoringScheme):
        name = "counting"

        def alpha(self, ctx, doc_id, var, keyword, offset):
            return (doc_id, var, keyword, offset, ctx.document_frequency(keyword))

        conj = disj = alt = staticmethod(lambda left, right: left)

        def omega(self, ctx, doc_id, score):
            return 0.0

    scheme = Counting()
    assert not isinstance(scheme, BoundAlphaScheme)
    bound = scheme.alpha_for(tiny_ctx, "p3", "fox")
    for cell in CELLS:
        assert bound(4, cell) == scheme.alpha(tiny_ctx, 4, "p3", "fox", cell)


def test_bind_term_frequency_agrees_with_term_frequency(tiny_index):
    class Handwritten(ScoringContext):
        """A context that only implements the abstract interface."""

        def __init__(self, base):
            self.base = base

        def collection_size(self):
            return self.base.collection_size()

        def doc_length(self, doc_id):
            return self.base.doc_length(doc_id)

        def avg_doc_length(self):
            return self.base.avg_doc_length()

        def term_frequency(self, doc_id, term):
            return self.base.term_frequency(doc_id, term)

        def document_frequency(self, term):
            return self.base.document_frequency(term)

    all_contexts = contexts(tiny_index)
    all_contexts["handwritten"] = Handwritten(all_contexts["index"])
    for ctx in all_contexts.values():
        for term in TERMS:
            bound = ctx.bind_term_frequency(term)
            for doc_id in range(tiny_index.num_docs):
                got = bound(doc_id)
                assert got == ctx.term_frequency(doc_id, term)
                assert type(got) is int
    # The handwritten context still scores through a bound alpha.
    sumbest = get_scheme("sumbest")
    handwritten = all_contexts["handwritten"]
    assert sumbest.alpha_for(handwritten, "p0", "quick")(4, 0) == sumbest.alpha(
        all_contexts["index"], 4, "p0", "quick", 0
    )


# -- the weighers spell the textbook formulas ------------------------------


def _stats(ctx, doc_id, term):
    return (
        ctx.term_frequency(doc_id, term),
        ctx.document_frequency(term),
        ctx.collection_size(),
        ctx.doc_length(doc_id),
        ctx.avg_doc_length() or 1.0,
    )


@pytest.mark.parametrize("kind", ["index", "packed", "override"])
def test_weighers_are_the_formulas_token_for_token(tiny_index, kind):
    ctx = contexts(tiny_index)[kind]
    k1, b = BM25_K1, BM25_B
    for term in TERMS:
        weighers = (
            bm25_weigher(ctx, term),
            tfidf_meansum_weigher(ctx, term),
            tfidf_weigher(ctx, term),
            kl_divergence_weigher(ctx, term),
        )
        for doc_id in range(tiny_index.num_docs):
            tf, df, n, dl, avg = _stats(ctx, doc_id, term)
            if tf == 0:
                expected = (0.0, 0.0, 0.0, 0.0)
            else:
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                total = max(1, n * int(ctx.avg_doc_length() or 1))
                expected = (
                    idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avg)),
                    (tf / dl) * (n / df) if df and dl else 0.0,
                    (1.0 + math.log(tf)) * math.log(n / df) if df else 0.0,
                    math.log(1.0 + tf / (2000.0 * (max(1, df) / total))),
                )
            got = tuple(weigh(doc_id) for weigh in weighers)
            assert got == expected, (kind, term, doc_id)
            assert all(type(x) is float for x in got)
            # The unbound forms are the same binding, applied once.
            assert got == (
                bm25(ctx, doc_id, term),
                tfidf_meansum(ctx, doc_id, term),
                tfidf(ctx, doc_id, term),
                kl_divergence(ctx, doc_id, term),
            )
