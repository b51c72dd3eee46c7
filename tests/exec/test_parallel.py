"""Parallel sharded execution: exact equivalence with serial execution.

The headline property (the paper's score-consistency contract extended
to physical distribution): for every shard count, every scheme, and
every query, the shard driver returns byte-for-byte the ranking the
serial engine returns — same documents, same scores, same order.  It is
checked exhaustively over the tiny suite and generatively over random
corpora with hypothesis.

There is one driver (``run_shards``) and two executors — ``serial``
(the shards in this process, one after another) and ``process`` — so
the protocol tests — equals-serial, ``top_k`` truncation, pruning,
all-pruned with and without profiling, the ``max_rows`` split — are one
body run over both (the ``sharded`` fixture); the process leg skips
where worker processes cannot start.

Resource-governance composition is tested through the ``guard_factory``
seam, which only the in-process backend has (a closure cannot cross the
pickle boundary): a fake clock expires the deadline inside exactly one
shard, and the merged outcome must degrade exactly like a serial partial
result (``on_limit="partial"``) or raise the serial exception
(``on_limit="error"``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.collection import DocumentCollection
from repro.errors import QueryTimeoutError
from repro.exec.engine import execute, make_runtime
from repro.exec.limits import QueryGuard, QueryLimits
from repro.exec.parallel import (
    _default_guard_factory,
    execute_sharded,
    merge_ranked,
    required_keywords,
    split_limits,
)
from repro.exec.procpool import (
    ProcPoolUnavailableError,
    execute_sharded_process,
    start_pool,
)
from repro.graft.optimizer import Optimizer
from repro.index.builder import build_index
from repro.index.shard import ShardedIndex
from repro.mcalc.parser import parse_query
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from tests.conftest import SCHEME_NAMES, TINY_QUERIES

SHARD_COUNTS = (1, 2, 3, 7)


def _serial(index, ctx, scheme, result, top_k=None, limits=None):
    runtime = make_runtime(index, scheme, result.info, ctx, limits=limits)
    return execute(result.plan, runtime, top_k=top_k)


def _sharded(index, ctx, scheme, result, shards, **kw):
    sharded = ShardedIndex(index, shards)
    return execute_sharded(
        sharded, result.plan, scheme, result.info, ctx, **kw
    )


@pytest.fixture(scope="module")
def tiny_pools(tiny_index):
    """Worker pools over the tiny index, one per shard count, started
    on first use and closed with the module."""
    pools = {}

    def pool_for(shards):
        if shards not in pools:
            try:
                pools[shards] = start_pool(tiny_index, shards)
            except ProcPoolUnavailableError as exc:
                pytest.skip(f"process pool unavailable: {exc}")
        return pools[shards]

    yield pool_for
    for pool in pools.values():
        pool.close()


@pytest.fixture(params=("serial", "process"))
def sharded(request, tiny_index, tiny_ctx, tiny_pools):
    """``run(scheme, result, shards, **kw)`` over the tiny index on one
    backend of the shard driver."""
    if request.param == "serial":
        return lambda scheme, result, shards, **kw: _sharded(
            tiny_index, tiny_ctx, scheme, result, shards, **kw
        )
    return lambda scheme, result, shards, **kw: execute_sharded_process(
        tiny_pools(shards), ShardedIndex(tiny_index, shards),
        result.plan, scheme, result.info, **kw
    )


# -- exact serial equivalence ---------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("text", TINY_QUERIES)
def test_sharded_equals_serial_all_schemes(
    tiny_collection, tiny_index, tiny_ctx, sharded, shards, text
):
    query = parse_query(text, tiny_collection.analyzer)
    for scheme_name in SCHEME_NAMES:
        scheme = get_scheme(scheme_name)
        result = Optimizer(scheme, tiny_index).optimize(query)
        serial = _serial(tiny_index, tiny_ctx, scheme, result)
        par = sharded(scheme, result, shards)
        assert par.results == serial, (scheme_name, text, shards)
        assert par.tripped is None
        assert par.shard_count == shards
        assert par.shards_pruned + len(par.shard_runs) == shards


@pytest.mark.parametrize("shards", (2, 3))
@pytest.mark.parametrize("top_k", (1, 2, 5))
def test_top_k_truncation_matches_serial(
    tiny_collection, tiny_index, tiny_ctx, sharded, shards, top_k
):
    query = parse_query("quick (fox | dog)", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    serial = _serial(tiny_index, tiny_ctx, scheme, result, top_k=top_k)
    par = sharded(scheme, result, shards, top_k=top_k)
    assert par.results == serial


_VOCAB = ("quick", "fox", "dog", "lazy", "brown", "jumps", "walk")

_PROPERTY_QUERIES = (
    "quick fox",
    '"quick fox"',
    "quick (fox | dog)",
    "fox -lazy",
    "(quick fox)ORDER",
)


@settings(max_examples=30, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(_VOCAB), min_size=2, max_size=10),
        min_size=3,
        max_size=12,
    ),
    text=st.sampled_from(_PROPERTY_QUERIES),
    scheme_name=st.sampled_from(SCHEME_NAMES),
    shards=st.sampled_from(SHARD_COUNTS),
)
def test_sharded_equals_serial_property(docs, text, scheme_name, shards):
    collection = DocumentCollection()
    for words in docs:
        collection.add_text(" ".join(words))
    index = build_index(collection)
    ctx = IndexScoringContext(index)
    scheme = get_scheme(scheme_name)
    query = parse_query(text, collection.analyzer)
    result = Optimizer(scheme, index).optimize(query)
    serial = _serial(index, ctx, scheme, result)
    par = _sharded(index, ctx, scheme, result, shards)
    assert par.results == serial
    assert par.shards_pruned + len(par.shard_runs) == shards


# -- partition pruning ----------------------------------------------------


def test_required_keywords(tiny_collection, tiny_index):
    scheme = get_scheme("sumbest")

    def required(text):
        query = parse_query(text, tiny_collection.analyzer)
        return required_keywords(
            Optimizer(scheme, tiny_index).optimize(query).plan
        )

    assert required("quick fox") == {"quick", "fox"}
    assert required('"quick fox"') == {"quick", "fox"}
    # A union match may come from either branch: only keywords required
    # by both branches survive.
    assert required("quick (fox | dog)") == {"quick"}
    # Negation filters but never produces: left side only.
    assert required("fox -terrier") == {"fox"}
    assert required("(quick fox)ORDER") == {"quick", "fox"}


def test_pruned_shards_are_skipped_but_results_exact(
    tiny_collection, tiny_index, tiny_ctx, sharded
):
    # 'terrier' occurs only in doc 3: with one doc per shard, every other
    # shard is provably empty and must be pruned.
    query = parse_query("fox terrier", tiny_collection.analyzer)
    scheme = get_scheme("anysum")
    result = Optimizer(scheme, tiny_index).optimize(query)
    serial = _serial(tiny_index, tiny_ctx, scheme, result)
    par = sharded(scheme, result, tiny_index.num_docs)
    assert par.results == serial
    assert par.shards_pruned == tiny_index.num_docs - 1
    assert len(par.shard_runs) == 1


def _registry_count(family):
    from repro.obs.metrics import REGISTRY

    return family(REGISTRY).child().value


def test_all_shards_pruned_returns_empty(
    tiny_collection, tiny_index, sharded
):
    from repro.obs.metrics import proc_queries, shards_pruned

    query = parse_query("quick zebra", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    sharded(scheme, result, 3)  # start the pool before counting
    before = _registry_count(proc_queries), _registry_count(shards_pruned)
    par = sharded(scheme, result, 3)
    assert par.results == []
    assert par.shards_pruned == 3
    assert par.shard_runs == []
    assert par.trace_root is None
    # One driver: a query answered by pruning alone is still a query of
    # its backend, and its pruned shards still reach the registry.
    assert _registry_count(shards_pruned) == before[1] + 3
    assert _registry_count(proc_queries) == before[0] + (
        par.executor == "process"
    )


def test_all_shards_pruned_still_traces_under_profile(
    tiny_collection, tiny_index, sharded
):
    # The observability contract promises a trace whenever profiling is
    # on — even when pruning proves the answer empty without running a
    # single shard.
    query = parse_query("quick zebra", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    par = sharded(scheme, result, 3, profile=True)
    assert par.results == []
    assert par.trace_root is not None
    assert par.trace_root.op_name == "ParallelMerge"
    assert "0/3 shards" in par.trace_root.label
    assert par.trace_root.children == []
    assert par.trace_root.stats.rows_out == 0


# -- budget splitting and merging -----------------------------------------


def test_split_limits():
    assert split_limits(None, 4) == [None] * 4
    limits = QueryLimits(deadline_ms=50.0)
    assert split_limits(limits, 3) == [limits] * 3  # nothing to split
    limits = QueryLimits(max_rows=10, max_matches_per_doc=7)
    parts = split_limits(limits, 3)
    assert [p.max_rows for p in parts] == [4, 3, 3]
    assert all(p.max_matches_per_doc == 7 for p in parts)
    # Never split below one row.
    parts = split_limits(QueryLimits(max_rows=2), 5)
    assert [p.max_rows for p in parts] == [1, 1, 1, 1, 1]
    # Every shard pruned: nothing to split, nothing to divide by.
    assert split_limits(QueryLimits(max_rows=2), 0) == []


def test_merge_ranked_is_exact_sort():
    a = [(0, 3.0), (2, 1.0)]
    b = [(1, 3.0), (3, 1.0), (4, 0.5)]
    c = []
    merged = merge_ranked([a, b, c])
    assert merged == [(0, 3.0), (1, 3.0), (2, 1.0), (3, 1.0), (4, 0.5)]
    assert merge_ranked([a, b], top_k=2) == [(0, 3.0), (1, 3.0)]


# -- resource governance across shards ------------------------------------


class _ExpiredClockGuard(QueryGuard):
    """A shard guard whose clock is always past the deadline and whose
    check interval is one row, so the first charge site trips."""

    DEADLINE_CHECK_INTERVAL = 1

    def __init__(self, limits, deadline_at):
        super().__init__(
            limits, clock=lambda: float("inf"), deadline_at=deadline_at
        )


def _one_slow_shard_factory(slow_shard: int):
    def factory(shard_index, limits, deadline_at):
        if shard_index == slow_shard:
            return _ExpiredClockGuard(limits, deadline_at)
        return QueryGuard(limits, deadline_at=deadline_at)

    return factory


def test_mid_query_deadline_degrades_to_partial(
    tiny_collection, tiny_index, tiny_ctx
):
    query = parse_query("quick (fox | dog)", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    serial = dict(_serial(tiny_index, tiny_ctx, scheme, result))
    limits = QueryLimits(deadline_ms=60_000.0, on_limit="partial")
    par = _sharded(
        tiny_index, tiny_ctx, scheme, result, 3,
        limits=limits,
        guard_factory=_one_slow_shard_factory(0),
    )
    assert par.tripped == "deadline_ms"
    expired = [r for r in par.shard_runs if r.shard_id == 0]
    healthy = [r for r in par.shard_runs if r.shard_id != 0]
    assert expired and expired[0].tripped == "deadline_ms"
    assert all(r.tripped is None for r in healthy)
    # Partial results are a subset of the serial ranking with identical
    # scores, and the healthy shards' documents are all present.
    for doc, score in par.results:
        assert serial[doc] == score
    healthy_docs = {
        doc for r in healthy for doc, _ in r.rows
    }
    assert healthy_docs <= {doc for doc, _ in par.results}


def test_mid_query_deadline_raises_on_error_mode(
    tiny_collection, tiny_index, tiny_ctx
):
    query = parse_query("quick (fox | dog)", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    limits = QueryLimits(deadline_ms=60_000.0, on_limit="error")
    with pytest.raises(QueryTimeoutError):
        _sharded(
            tiny_index, tiny_ctx, scheme, result, 3,
            limits=limits,
            guard_factory=_one_slow_shard_factory(1),
        )


def test_max_rows_budget_splits_across_shards(
    tiny_collection, tiny_index, tiny_ctx, sharded
):
    query = parse_query("quick fox", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    limits = QueryLimits(max_rows=3, on_limit="partial")
    par = sharded(scheme, result, 2, limits=limits)
    assert par.tripped == "max_rows"
    serial = dict(_serial(tiny_index, tiny_ctx, scheme, result))
    for doc, score in par.results:
        assert serial[doc] == score


def test_unlimited_shards_run_ungoverned_like_serial(
    tiny_collection, tiny_index, tiny_ctx
):
    # No limits, nothing to govern: each shard's guard is inactive and
    # charges nothing, exactly like the serial engine's.
    guards = []

    def spy(shard_index, limits, deadline_at):
        guards.append(_default_guard_factory(shard_index, limits, deadline_at))
        return guards[-1]

    query = parse_query("quick fox", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    par = _sharded(
        tiny_index, tiny_ctx, scheme, result, 2, guard_factory=spy
    )
    runtime = make_runtime(tiny_index, scheme, result.info, tiny_ctx)
    assert par.results == execute(result.plan, runtime)
    assert guards and not any(guard.active for guard in guards)
    assert par.metrics.rows_charged == runtime.guard.rows_charged == 0


def test_failed_shard_stops_later_shards_on_error_mode(
    tiny_collection, tiny_index, tiny_ctx
):
    # Shards run one after another: once shard 1 raises, shard 2 is
    # never built, and the error is shard 1's own.
    slow = _one_slow_shard_factory(1)
    built = []

    def spy(shard_index, limits, deadline_at):
        built.append(shard_index)
        return slow(shard_index, limits, deadline_at)

    query = parse_query("quick (fox | dog)", tiny_collection.analyzer)
    scheme = get_scheme("sumbest")
    result = Optimizer(scheme, tiny_index).optimize(query)
    live = ShardedIndex(tiny_index, 3).live_shards(
        required_keywords(result.plan)
    )
    assert len(live) == 3  # nothing pruned: shard 2 would run
    limits = QueryLimits(deadline_ms=60_000.0, on_limit="error")
    with pytest.raises(QueryTimeoutError):
        _sharded(
            tiny_index, tiny_ctx, scheme, result, 3,
            limits=limits, guard_factory=spy,
        )
    assert built == [0, 1]
