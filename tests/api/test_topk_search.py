"""``SearchEngine.search(top_k=k)``: one execution path for every query.

A top-k search runs the same optimized plan as the full search and keeps
the first ``k`` of its ranking.  These tests pin that for the query
shapes score-ordered joins and unions would serve (anysum conjunctions
and disjunctions) and for the shapes they could not (predicates, nested
Boolean structure, column-first and row-first schemes), unsharded,
sharded and answered from the result cache.
"""

from __future__ import annotations

import pytest

from repro.api import SearchEngine
from repro.exec.cache import CacheConfig

from tests.conftest import make_tiny_collection


@pytest.fixture(scope="module")
def engine():
    return SearchEngine(make_tiny_collection())


@pytest.fixture(scope="module")
def sharded_engine():
    return SearchEngine(make_tiny_collection(), shards=2)


def ranking(outcome):
    return [(r.doc_id, r.score) for r in outcome]


def assert_top_k_is_prefix(engine, text, scheme, k):
    full = ranking(engine.search(text, scheme=scheme))
    top = ranking(engine.search(text, scheme=scheme, top_k=k))
    assert full, (text, scheme)
    assert top == full[:k]


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_conjunctive_top_k_is_prefix_of_full_ranking(engine, k):
    assert_top_k_is_prefix(engine, "quick fox", "anysum", k)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_disjunctive_top_k_is_prefix_of_full_ranking(engine, k):
    assert_top_k_is_prefix(engine, "fox | terrier", "anysum", k)


def test_three_way_conjunction_top_k(engine):
    assert_top_k_is_prefix(engine, "quick fox dog", "anysum", 2)


@pytest.mark.parametrize(
    "text, scheme",
    [
        ('"quick fox"', "anysum"),
        ("quick (fox | terrier)", "anysum"),
        ("(quick fox dog)WINDOW[6]", "anysum"),
        ("fox -terrier", "anysum"),
        ("quick fox", "sumbest"),
        ("quick fox", "event-model"),
    ],
    ids=["phrase", "nested-boolean", "window", "negation", "column-first",
         "row-first"],
)
def test_top_k_is_prefix_for_every_query_shape(engine, text, scheme):
    assert_top_k_is_prefix(engine, text, scheme, 2)


@pytest.mark.parametrize("text", ["quick fox", "fox | terrier"],
                         ids=["conjunction", "disjunction"])
def test_sharded_top_k_equals_unsharded(engine, sharded_engine, text):
    want = engine.search(text, scheme="anysum", top_k=3)
    got = sharded_engine.search(text, scheme="anysum", top_k=3)
    assert got.shard_count == 2
    assert [r.doc_id for r in got] == [r.doc_id for r in want]
    for g, w in zip(got, want):
        assert g.score == pytest.approx(w.score)


def test_cached_top_k_is_prefix_of_full_ranking():
    cached = SearchEngine(
        make_tiny_collection(),
        cache=CacheConfig(plan_capacity=8, result_capacity=8),
    )
    full = ranking(cached.search("fox | terrier", scheme="anysum"))
    first = cached.search("fox | terrier", scheme="anysum", top_k=3)
    again = cached.search("fox | terrier", scheme="anysum", top_k=3)
    assert first.plan_cached and not first.result_cached
    assert again.result_cached
    assert ranking(first) == ranking(again) == full[:3]


def test_top_k_runs_the_full_search_plan(engine):
    full = engine.search("quick fox", scheme="anysum")
    top = engine.search("quick fox", scheme="anysum", top_k=3)
    assert top.plan_text == full.plan_text
    assert top.applied_optimizations == full.applied_optimizations
    assert [(e.rule, e.applied) for e in top.rewrite_log] == \
        [(e.rule, e.applied) for e in full.rewrite_log]
