"""The two-tier query cache: hits, misses, and invalidation.

The cache must be invisible except in speed: a cached search returns
exactly what the uncached search returned, and any event that could
change the answer — an index mutation, a different scheme, different
optimizer toggles — must miss.  Generation keying makes invalidation
structural (old keys become unreachable), which these tests observe
through ``SearchOutcome.plan_cached``/``result_cached`` and
``cache_stats()``."""

from __future__ import annotations

import pytest

from repro.api import SearchEngine
from repro.errors import GraftError
from repro.exec.cache import CacheConfig, LRUCache
from repro.graft.optimizer import OptimizerOptions

from tests.conftest import make_tiny_collection


@pytest.fixture()
def engine():
    return SearchEngine(
        make_tiny_collection(),
        cache=CacheConfig(plan_capacity=8, result_capacity=8),
    )


def test_repeat_query_hits_both_tiers(engine):
    first = engine.search("quick fox")
    second = engine.search("quick fox")
    assert not first.plan_cached and not first.result_cached
    assert second.plan_cached and second.result_cached
    assert second.results == first.results
    assert second.applied_optimizations == first.applied_optimizations
    assert second.plan_text == first.plan_text
    stats = engine.cache_stats()
    assert stats["plan"]["hits"] == 0  # result tier answered first
    assert stats["result"]["hits"] == 1
    assert stats["result"]["size"] == 1


def test_plan_tier_hits_when_top_k_differs(engine):
    engine.search("quick fox", top_k=5)
    outcome = engine.search("quick fox", top_k=2)
    # Different top_k: result tier misses, plan tier still hits.
    assert outcome.plan_cached and not outcome.result_cached
    assert engine.cache_stats()["plan"]["hits"] == 1


def test_scheme_change_misses(engine):
    engine.search("quick fox", scheme="sumbest")
    outcome = engine.search("quick fox", scheme="anysum")
    assert not outcome.plan_cached and not outcome.result_cached
    assert engine.cache_stats()["plan"]["size"] == 2


def test_optimizer_options_change_misses(engine):
    engine.search("quick fox")
    outcome = engine.search(
        "quick fox", options=OptimizerOptions(pre_counting=False)
    )
    assert not outcome.plan_cached
    # And the same options object content hits again.
    again = engine.search(
        "quick fox", options=OptimizerOptions(pre_counting=False)
    )
    assert again.plan_cached


def test_optimize_flag_change_misses(engine):
    engine.search("quick fox")
    outcome = engine.search("quick fox", optimize=False)
    assert not outcome.plan_cached
    assert outcome.applied_optimizations == []


def test_add_invalidates_both_tiers(engine):
    cached = engine.search("quick fox")
    assert engine.search("quick fox").result_cached
    engine.add("a brand new quick fox document")
    outcome = engine.search("quick fox")
    assert not outcome.plan_cached and not outcome.result_cached
    # The new document participates: results actually changed.
    assert len(outcome.results) == len(cached.results) + 1


def test_parsed_query_objects_bypass_the_cache(engine):
    parsed = engine.parse("quick fox")
    first = engine.search(parsed)
    second = engine.search(parsed)
    # Only raw text is a safe key; Query objects never touch the cache.
    assert not first.plan_cached and not second.plan_cached
    assert engine.cache_stats()["plan"]["size"] == 0


def test_limits_and_profile_skip_result_tier(engine):
    from repro.exec.limits import QueryLimits

    engine.search("quick fox")
    limited = engine.search(
        "quick fox", limits=QueryLimits(max_rows=100_000)
    )
    assert not limited.result_cached
    profiled = engine.search("quick fox", profile=True)
    assert not profiled.result_cached
    assert profiled.stats is not None


def test_cached_outcome_is_a_fresh_object(engine):
    first = engine.search("quick fox")
    second = engine.search("quick fox")
    assert second is not first
    assert second.results is not first.results
    second.results.append((999, 0.0))
    third = engine.search("quick fox")
    assert (999, 0.0) not in third.results


def test_load_starts_with_cold_caches(tmp_path, engine):
    engine.search("quick fox")
    engine.save(tmp_path / "store")
    loaded = SearchEngine.load(tmp_path / "store")
    stats = loaded.cache_stats()
    assert stats["plan"]["size"] == 0 and stats["result"]["size"] == 0
    first = loaded.search("quick fox")
    assert not first.plan_cached
    assert loaded.search("quick fox").plan_cached


def test_cache_off_never_caches():
    engine = SearchEngine(make_tiny_collection(), cache=CacheConfig.off())
    engine.search("quick fox")
    outcome = engine.search("quick fox")
    assert not outcome.plan_cached and not outcome.result_cached
    stats = engine.cache_stats()
    assert stats["plan"]["size"] == 0
    assert stats["plan"]["hits"] == stats["plan"]["misses"] == 0


def test_default_config_has_no_result_tier():
    engine = SearchEngine(make_tiny_collection())
    engine.search("quick fox")
    outcome = engine.search("quick fox")
    assert outcome.plan_cached and not outcome.result_cached


def test_cache_config_validation():
    with pytest.raises(GraftError, match="plan_capacity"):
        CacheConfig(plan_capacity=-1)
    with pytest.raises(GraftError, match="result_capacity"):
        CacheConfig(result_capacity=2.5)
    assert CacheConfig.off().plan_capacity == 0


def test_lru_eviction_order():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes 'a'
    cache.put("c", 3)  # evicts 'b', the least recently used
    assert "b" not in cache
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2
    assert cache.hits == 3 and cache.misses == 1


def test_cache_metrics_flow_to_registry(engine):
    from repro.obs.metrics import REGISTRY

    engine.search("quick fox")
    engine.search("quick fox")
    engine.search("quick fox", top_k=3)
    text = REGISTRY.to_prometheus_text()
    assert "graft_plan_cache_hits_total" in text
    assert "graft_result_cache_hits_total" in text
