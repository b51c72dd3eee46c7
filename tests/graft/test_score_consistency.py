"""Score consistency (Definition 1) — the paper's central invariant.

For every scoring scheme and every plan the optimizer can produce (all
option subsets, including forward-scan joins where valid),
the (document, score) results must equal those of the reference semantics
— the brute-force oracle matches aggregated per Section 4.  Checked on
fixed workloads and on hypothesis-generated random corpora and queries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.collection import DocumentCollection
from repro.exec.engine import execute, make_runtime
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.index.builder import build_index
from repro.mcalc.parser import parse_query
from repro.sa.context import IndexScoringContext
from repro.sa.reference import rank_with_oracle
from repro.sa.registry import get_scheme

from tests.conftest import SCHEME_NAMES, TINY_QUERIES, assert_same_ranking


def run(plan_result, index, scheme, ctx=None):
    runtime = make_runtime(index, scheme, plan_result.info, ctx)
    return execute(plan_result.plan, runtime)


class TestFixedWorkload:
    @pytest.mark.parametrize("text", TINY_QUERIES)
    def test_canonical_equals_oracle(self, text, scheme, tiny_collection, tiny_index, tiny_ctx):
        q = parse_query(text)
        got = run(Optimizer(scheme).canonical(q), tiny_index, scheme, tiny_ctx)
        want = rank_with_oracle(scheme, tiny_ctx, q, tiny_collection)
        assert_same_ranking(got, want)

    @pytest.mark.parametrize("text", TINY_QUERIES)
    def test_optimized_equals_oracle(self, text, scheme, tiny_collection, tiny_index, tiny_ctx):
        q = parse_query(text)
        got = run(
            Optimizer(scheme, tiny_index).optimize(q), tiny_index, scheme, tiny_ctx
        )
        want = rank_with_oracle(scheme, tiny_ctx, q, tiny_collection)
        assert_same_ranking(got, want)

    @pytest.mark.parametrize("text", TINY_QUERIES)
    def test_forward_scan_plans_consistent(self, text, tiny_collection, tiny_index, tiny_ctx):
        scheme = get_scheme("anysum")
        q = parse_query(text)
        res = Optimizer(
            scheme, tiny_index, OptimizerOptions(forward_scan=True)
        ).optimize(q)
        got = run(res, tiny_index, scheme, tiny_ctx)
        want = rank_with_oracle(scheme, tiny_ctx, q, tiny_collection)
        assert_same_ranking(got, want)


OPTION_TOGGLES = (
    "selection_pushing",
    "eager_counting",
    "pre_counting",
    "eager_aggregation",
    "alternate_elimination",
    "sort_elimination",
)


class TestOptionSubsets:
    """Every subset of rewrites must stay consistent, not just the full
    pipeline — a rewrite must not depend on a later one for correctness."""

    @pytest.mark.parametrize("disabled", OPTION_TOGGLES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_each_single_toggle_off(
        self, disabled, scheme_name, tiny_collection, tiny_index, tiny_ctx
    ):
        scheme = get_scheme(scheme_name)
        options = OptimizerOptions(**{disabled: False})
        q = parse_query('quick (fox | "lazy dog") show')
        got = run(
            Optimizer(scheme, tiny_index, options).optimize(q),
            tiny_index, scheme, tiny_ctx,
        )
        want = rank_with_oracle(scheme, tiny_ctx, q, tiny_collection)
        assert_same_ranking(got, want)


# ---------------------------------------------------------------------------
# Randomized corpora and queries.
# ---------------------------------------------------------------------------

WORDS = ("aa", "bb", "cc", "dd", "ee")

documents = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
    min_size=1,
    max_size=6,
)


@st.composite
def query_texts(draw):
    """Random shorthand queries over the tiny vocabulary."""
    def term():
        return draw(st.sampled_from(WORDS))

    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(
            ("term", "phrase", "disj", "prox", "window")
        ))
        if kind == "term":
            items.append(term())
        elif kind == "phrase":
            items.append(f'"{term()} {term()}"')
        elif kind == "disj":
            items.append(f"({term()} | {term()})")
        elif kind == "prox":
            n = draw(st.integers(min_value=1, max_value=6))
            items.append(f"({term()} {term()})PROXIMITY[{n}]")
        else:
            n = draw(st.integers(min_value=2, max_value=8))
            items.append(f"({term()} {term()})WINDOW[{n}]")
    return " ".join(items)


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
@settings(max_examples=25, deadline=None)
@given(docs=documents, text=query_texts())
def test_random_corpus_and_query(scheme_name, docs, text):
    scheme = get_scheme(scheme_name)
    collection = DocumentCollection()
    for tokens in docs:
        collection.add_tokens(tokens)
    index = build_index(collection)
    ctx = IndexScoringContext(index)
    q = parse_query(text)
    want = rank_with_oracle(scheme, ctx, q, collection)
    got = run(Optimizer(scheme, index).optimize(q), index, scheme, ctx)
    assert_same_ranking(got, want)


@settings(max_examples=15, deadline=None)
@given(docs=documents, text=query_texts())
def test_random_forward_scan_consistency(docs, text):
    scheme = get_scheme("anysum")
    collection = DocumentCollection()
    for tokens in docs:
        collection.add_tokens(tokens)
    index = build_index(collection)
    ctx = IndexScoringContext(index)
    q = parse_query(text)
    want = rank_with_oracle(scheme, ctx, q, collection)
    got = run(
        Optimizer(scheme, index, OptimizerOptions(forward_scan=True)).optimize(q),
        index, scheme, ctx,
    )
    assert_same_ranking(got, want)


class TestPairwiseToggles:
    """Rewrites must also compose correctly when *two* are missing —
    catches rules that silently rely on each other."""

    PAIRS = (
        ("selection_pushing", "eager_aggregation"),
        ("eager_counting", "sort_elimination"),
        ("pre_counting", "alternate_elimination"),
        ("eager_aggregation", "sort_elimination"),
    )

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("scheme_name", ("anysum", "sumbest", "meansum"))
    def test_pair_off(self, pair, scheme_name, tiny_collection, tiny_index, tiny_ctx):
        scheme = get_scheme(scheme_name)
        options = OptimizerOptions(**{name: False for name in pair})
        q = parse_query('quick (fox | "lazy dog") show')
        got = run(
            Optimizer(scheme, tiny_index, options).optimize(q),
            tiny_index, scheme, tiny_ctx,
        )
        want = rank_with_oracle(scheme, tiny_ctx, q, tiny_collection)
        assert_same_ranking(got, want)


class TestPlanTextProvenance:
    def test_search_outcome_carries_plan(self, tiny_collection):
        from repro.api import SearchEngine

        engine = SearchEngine(tiny_collection)
        out = engine.search("quick fox", scheme="anysum")
        assert "pi[omega]" in out.plan_text
        assert "delta[doc]" in out.plan_text
