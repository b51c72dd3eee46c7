"""Resource governance: deadlines, budgets, caps, graceful degradation.

The O(W^Q) worst case of Section 6 means an adversarial query can force
the engine to enumerate an astronomically large match table; these tests
prove the QueryGuard bounds that work, that error-mode trips surface as
typed exceptions, and that partial-mode degradation never returns a
mis-ranked or mis-scored prefix.
"""

from __future__ import annotations

import time

import pytest

from repro import SearchEngine
from repro.errors import (
    GraftError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.exec.limits import QueryGuard, QueryLimits


# -- fixtures ---------------------------------------------------------------


@pytest.fixture
def engine():
    e = SearchEngine()
    e.add("the quick brown fox jumps over the lazy dog")
    e.add("a quick quick fox and a slow dog walk home")
    e.add("dogs and foxes are not the same animal")
    e.add("quick release fox terrier dog show dog fox")
    e.add("quick fox quick fox dog dog dog lazy")
    e.add("nothing relevant here at all just filler words")
    e.add("the brown dog naps while the brown fox runs quick")
    return e


@pytest.fixture
def adversarial_engine():
    """One document where a single keyword repeats many times: a Q-keyword
    query over it has an O(W^Q) match table (60^4 = 12.96M rows here)."""
    e = SearchEngine()
    e.add("pad " + "boom " * 60 + "tail")
    e.add("a normal document with a boom in it")
    return e


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# -- QueryLimits validation -------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadline_ms": 0},
        {"deadline_ms": -5},
        {"max_rows": 0},
        {"max_rows": -1},
        {"max_matches_per_doc": 0},
        {"on_limit": "explode"},
    ],
)
def test_bad_limits_rejected(kwargs):
    with pytest.raises(GraftError):
        QueryLimits(**kwargs)


def test_default_limits_are_unlimited():
    limits = QueryLimits()
    assert limits.unlimited
    assert not QueryGuard(limits).active
    assert not QueryGuard(None).active


# -- QueryGuard unit behavior (fake clock) ----------------------------------


def test_row_budget_trips_exactly_past_the_budget():
    guard = QueryGuard(QueryLimits(max_rows=10))
    guard.charge_rows(10)  # exactly the budget: fine
    assert guard.tripped is None
    with pytest.raises(ResourceExhaustedError) as info:
        guard.charge_rows()
    assert guard.tripped == "max_rows"
    assert info.value.limit == "max_rows"


def test_deadline_trips_via_fake_clock():
    clock = FakeClock()
    guard = QueryGuard(QueryLimits(deadline_ms=100), clock=clock)
    guard.check_deadline()  # within deadline
    clock.now += 0.2
    with pytest.raises(QueryTimeoutError) as info:
        guard.check_deadline()
    assert guard.tripped == "deadline_ms"
    assert info.value.limit == "deadline_ms"
    assert isinstance(info.value, ResourceExhaustedError)


def test_tick_consults_clock_every_interval():
    clock = FakeClock()
    guard = QueryGuard(QueryLimits(deadline_ms=100), clock=clock)
    clock.now += 1.0  # already past the deadline
    for _ in range(QueryGuard.DEADLINE_CHECK_INTERVAL - 1):
        guard.tick()  # batched: no clock consult yet
    with pytest.raises(QueryTimeoutError):
        guard.tick()


def test_start_rearms_deadline():
    clock = FakeClock()
    guard = QueryGuard(QueryLimits(deadline_ms=100), clock=clock)
    clock.now += 10.0
    guard.start()  # optimizer time must not count against the deadline
    guard.check_deadline()


def test_start_keeps_an_absolute_deadline():
    # A shard's deadline is one instant shared by the whole query: arming
    # the shard's plan late must not extend it.
    clock = FakeClock()
    limits = QueryLimits(deadline_ms=100)
    guard = QueryGuard(limits, clock=clock, deadline_at=clock.now + 0.1)
    clock.now += 10.0
    guard.start()
    with pytest.raises(QueryTimeoutError):
        guard.check_deadline()


def test_doc_cap_resets_per_document():
    guard = QueryGuard(QueryLimits(max_matches_per_doc=3))
    for doc in (1, 2, 3):
        guard.charge_doc_rows(doc, 3)
    with pytest.raises(ResourceExhaustedError):
        guard.charge_doc_rows(4, 4)
    assert guard.tripped == "max_matches_per_doc"


# -- engine integration: error mode -----------------------------------------


def test_search_row_budget_error(engine):
    with pytest.raises(ResourceExhaustedError):
        engine.search("quick dog", limits=QueryLimits(max_rows=3))


def test_search_doc_cap_error(adversarial_engine):
    # The canonical plan joins the two position streams, producing
    # 60x60 match rows in the adversarial document (optimized plans may
    # legitimately aggregate before joining and never hit the cap).
    with pytest.raises(ResourceExhaustedError):
        adversarial_engine.search(
            "boom boom",
            optimize=False,
            limits=QueryLimits(max_matches_per_doc=50),
        )


def test_match_table_budget_error(adversarial_engine):
    with pytest.raises(ResourceExhaustedError):
        adversarial_engine.match_table(
            "boom boom boom boom", limits=QueryLimits(max_rows=10_000)
        )


def test_adversarial_deadline_terminates_promptly(adversarial_engine):
    """A 12.96M-row match table under a 100 ms deadline must abort within
    ~2x the deadline (generous wall-clock bound for CI jitter)."""
    begin = time.monotonic()
    with pytest.raises(QueryTimeoutError):
        adversarial_engine.match_table(
            "boom boom boom boom", limits=QueryLimits(deadline_ms=100)
        )
    assert time.monotonic() - begin < 1.0


def test_adversarial_search_deadline_terminates_promptly(adversarial_engine):
    begin = time.monotonic()
    with pytest.raises(QueryTimeoutError):
        adversarial_engine.search(
            "boom boom boom boom",
            optimize=False,
            limits=QueryLimits(deadline_ms=100),
        )
    assert time.monotonic() - begin < 1.0


# -- engine integration: graceful degradation -------------------------------


def test_partial_search_returns_correctly_ranked_prefix(engine):
    full = engine.search("quick dog")
    assert not full.degraded
    full_scores = {r.doc_id: r.score for r in full}

    partial = engine.search(
        "quick dog", limits=QueryLimits(max_rows=10, on_limit="partial")
    )
    assert partial.degraded
    assert len(partial.results) < len(full.results)
    # Every returned document carries its exact full-evaluation score...
    for r in partial:
        assert r.score == pytest.approx(full_scores[r.doc_id])
    # ...and the prefix is exactly ranked (desc score, asc doc id ties).
    keys = [(-r.score, r.doc_id) for r in partial]
    assert keys == sorted(keys)
    # Provenance: the tripped limit is recorded.
    assert "limit:max_rows" in partial.applied_optimizations
    assert partial.metrics.limit_tripped == "max_rows"
    assert partial.metrics.rows_charged > 0


def test_partial_deadline_search_is_flagged(adversarial_engine):
    outcome = adversarial_engine.search(
        "boom boom boom boom",
        optimize=False,
        limits=QueryLimits(deadline_ms=100, on_limit="partial"),
    )
    assert outcome.degraded
    assert outcome.metrics.limit_tripped == "deadline_ms"
    assert "limit:deadline_ms" in outcome.applied_optimizations


def test_unrestricted_search_is_never_degraded(engine):
    outcome = engine.search("quick dog", limits=QueryLimits(max_rows=10**9))
    assert not outcome.degraded
    assert outcome.metrics.limit_tripped is None
    assert outcome.metrics.rows_charged > 0


def test_partial_match_table_is_prefix_of_full_table(engine):
    full = engine.match_table("quick dog")
    assert full.truncated is None
    partial = engine.match_table(
        "quick dog", limits=QueryLimits(max_rows=8, on_limit="partial")
    )
    assert partial.truncated == "max_rows"
    assert len(partial.rows) < len(full.rows)
    assert partial.rows == full.rows[: len(partial.rows)]


def test_partial_matches_does_not_raise(adversarial_engine):
    out = adversarial_engine.matches(
        "boom boom",
        0,
        limit=3,
        limits=QueryLimits(max_rows=5, on_limit="partial"),
    )
    assert isinstance(out, list)


def test_top_k_search_respects_limits(engine):
    with pytest.raises(ResourceExhaustedError):
        engine.search(
            "quick dog",
            scheme="anysum",
            top_k=3,
            limits=QueryLimits(max_rows=2),
        )
    partial = engine.search(
        "quick dog",
        scheme="anysum",
        top_k=3,
        limits=QueryLimits(max_rows=2, on_limit="partial"),
    )
    assert partial.degraded
    keys = [(-r.score, r.doc_id) for r in partial]
    assert keys == sorted(keys)


# -- limits on the public facade -------------------------------------------


def test_results_identical_with_generous_limits(engine):
    unlimited = engine.search("quick dog", scheme="sumbest")
    governed = engine.search(
        "quick dog",
        scheme="sumbest",
        limits=QueryLimits(deadline_ms=60_000, max_rows=10**9),
    )
    assert [(r.doc_id, r.score) for r in unlimited] == [
        (r.doc_id, r.score) for r in governed
    ]
