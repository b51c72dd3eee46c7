"""The process backend: what only it can get wrong — tasks that cannot
be shipped, limit errors that must survive pickling, pool lifecycle —
and the engine wiring (fallbacks, strict audit over the process path).

The headline property — the merged ranking is byte-for-byte the serial
one; the workers score through a shared-memory :class:`PackedIndex`, so
it is also the end-to-end proof that the packed substrate is score-exact
— is the shard driver's, and its exhaustive tests run over both backends
in ``tests/exec/test_parallel.py``; the generative one is here.

Every test that needs worker processes skips (rather than fails) where
shared memory or process pools are unavailable, mirroring the engine's
own graceful fallback.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchEngine, _resolve_executor
from repro.corpus.collection import DocumentCollection
from repro.errors import (
    ConfigError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.exec.engine import execute, make_runtime
from repro.exec.limits import QueryLimits
from repro.exec.procpool import (
    ProcessShardPool,
    ProcPoolUnavailableError,
    default_worker_count,
    execute_sharded_process,
)
from repro.graft.optimizer import Optimizer
from repro.index.builder import build_index
from repro.index.packed import pack_index
from repro.index.shard import ShardedIndex
from repro.mcalc.parser import parse_query
from repro.obs.audit import AuditConfig
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from tests.conftest import SCHEME_NAMES


def _make_pool(index, shards):
    try:
        return ProcessShardPool(
            pack_index(index), shards,
            max_workers=default_worker_count(shards),
        )
    except ProcPoolUnavailableError as exc:
        pytest.skip(f"process pool unavailable: {exc}")


@pytest.fixture(scope="module")
def pool2(tiny_index):
    pool = _make_pool(tiny_index, 2)
    yield pool
    pool.close()


def _optimize(collection, index, scheme_name, text):
    scheme = get_scheme(scheme_name)
    query = parse_query(text, collection.analyzer)
    return scheme, Optimizer(scheme, index).optimize(query)


def _serial(index, ctx, scheme, result, **kw):
    runtime = make_runtime(index, scheme, result.info, ctx)
    return execute(result.plan, runtime, **kw)


# -- exact serial equivalence ---------------------------------------------


def test_unpicklable_scheme_is_unavailable_not_an_error(
    tiny_collection, tiny_index, pool2
):
    """A scheme pickle can fail *asynchronously* on the executor's
    feeder thread; the pre-flight pickle must turn it into the
    deterministic fall-back signal instead."""
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick fox"
    )
    local_cls = type("LocalScheme", (type(scheme),), {})
    with pytest.raises(ProcPoolUnavailableError):
        execute_sharded_process(
            pool2, ShardedIndex(tiny_index, 2), result.plan, local_cls(),
            result.info,
        )


def test_shard_count_mismatch_is_unavailable(
    tiny_collection, tiny_index, pool2
):
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick fox"
    )
    with pytest.raises(ProcPoolUnavailableError):
        execute_sharded_process(
            pool2, ShardedIndex(tiny_index, 3), result.plan, scheme,
            result.info,
        )


# -- limit semantics across the boundary ----------------------------------


def test_max_rows_error_mode_crosses_boundary(
    tiny_collection, tiny_index, pool2
):
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick fox"
    )
    with pytest.raises(ResourceExhaustedError) as exc:
        execute_sharded_process(
            pool2, ShardedIndex(tiny_index, 2), result.plan, scheme,
            result.info, limits=QueryLimits(max_rows=1, on_limit="error"),
        )
    # The structured tuple protocol must preserve the machine-readable
    # limit name, not just the message.
    assert exc.value.limit == "max_rows"


def test_deadline_error_mode_keeps_exception_class(
    tiny_collection, tiny_index, monkeypatch
):
    # The deadline is consulted every DEADLINE_CHECK_INTERVAL charges;
    # the tiny corpus never reaches the stride, so drop it to 1 and let
    # forked workers inherit the patched class (spawn re-imports and
    # would not see it — hence the start-method gate).
    from repro.exec.limits import QueryGuard

    monkeypatch.setattr(QueryGuard, "DEADLINE_CHECK_INTERVAL", 1)
    pool = _make_pool(tiny_index, 2)
    if pool._start_method != "fork":
        pool.close()
        pytest.skip("patched stride needs fork-inherited worker state")
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick (fox | dog)"
    )
    try:
        with pytest.raises(QueryTimeoutError) as exc:
            execute_sharded_process(
                pool, ShardedIndex(tiny_index, 2), result.plan, scheme,
                result.info,
                limits=QueryLimits(deadline_ms=1e-6, on_limit="error"),
            )
    finally:
        pool.close()
    assert exc.value.limit == "deadline_ms"


def test_max_rows_partial_mode_degrades(
    tiny_collection, tiny_index, tiny_ctx, pool2
):
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick fox"
    )
    par = execute_sharded_process(
        pool2, ShardedIndex(tiny_index, 2), result.plan, scheme,
        result.info, limits=QueryLimits(max_rows=1, on_limit="partial"),
    )
    assert par.tripped == "max_rows"
    # Partial results are a correctly-ranked prefix of the full merge.
    full = _serial(tiny_index, tiny_ctx, scheme, result)
    assert par.results == full[: len(par.results)]


# -- pool lifecycle --------------------------------------------------------


def test_pool_close_is_idempotent_and_fails_closed(
    tiny_collection, tiny_index
):
    pool = _make_pool(tiny_index, 2)
    assert not pool.closed
    pool.close()
    assert pool.closed
    pool.close()  # second close is a no-op, not an error
    scheme, result = _optimize(
        tiny_collection, tiny_index, "sumbest", "quick fox"
    )
    with pytest.raises(ProcPoolUnavailableError):
        execute_sharded_process(
            pool, ShardedIndex(tiny_index, 2), result.plan, scheme,
            result.info,
        )


# -- engine wiring ---------------------------------------------------------


def _engine_pair(tiny_collection, **kw):
    engine = SearchEngine(tiny_collection, shards=2, executor="process", **kw)
    out = engine.search("quick fox")
    if out.executor != "process":
        engine.close()
        pytest.skip("process executor unavailable on this platform")
    return engine


def test_engine_process_bit_identical_with_strict_audit(tiny_collection):
    """The strongest gate in the repo, pointed at the process path: a
    rate-1.0 strict audit shadow-executes the canonical plan serially
    and raises on any score divergence — for every scheme."""
    engine = _engine_pair(
        tiny_collection, audit=AuditConfig(rate=1.0, mode="strict")
    )
    serial = SearchEngine(tiny_collection, shards=1)
    try:
        for scheme_name in SCHEME_NAMES:
            for text in ("quick fox", '"quick fox"', "quick (fox | dog)"):
                out = engine.search(text, scheme=scheme_name)
                ref = serial.search(text, scheme=scheme_name)
                assert [(r.doc_id, r.score) for r in out.results] == \
                    [(r.doc_id, r.score) for r in ref.results], \
                    (scheme_name, text)
                assert out.executor == "process"
                assert out.audit is None or out.audit.ok
    finally:
        engine.close()
        serial.close()


def _trace_shape(node):
    return (
        node.label, node.stats.rows_out,
        [_trace_shape(child) for child in node.children],
    )


def test_engine_profile_stays_on_processes(tiny_collection):
    """Workers return their trace subtree: a profiled process search is
    a process search, with the tree the in-process shards build."""
    engine = _engine_pair(tiny_collection)
    in_process = SearchEngine(tiny_collection, shards=2, executor="serial")
    try:
        for text in ("quick fox", "quick (fox | dog)", "quick zebra"):
            out = engine.search(text, profile=True)
            ref = in_process.search(text, profile=True)
            assert out.executor == "process"
            assert ref.executor == "serial"
            assert out.stats.op_name == "ParallelMerge"
            assert _trace_shape(out.stats) == _trace_shape(ref.stats)
            assert out.wall_ms is not None
    finally:
        engine.close()
        in_process.close()


def test_engine_add_invalidates_pool():
    # A private collection: add() mutates it, and the session-scoped
    # tiny_collection must stay pristine for every other test.
    from tests.conftest import make_tiny_collection

    engine = _engine_pair(make_tiny_collection())
    try:
        first = engine._procpool
        assert first is not None and not first.closed
        engine.add("a brand new quick fox document")
        out = engine.search("quick fox")
        assert out.executor == "process"
        second = engine._procpool
        assert second is not first
        assert first.closed  # the old generation's workers are gone
    finally:
        engine.close()


def test_engine_executor_setter_lifecycle(tiny_collection):
    engine = _engine_pair(tiny_collection)
    try:
        pool = engine._procpool
        engine.executor = "serial"
        assert pool.closed and engine._procpool is None
        out = engine.search("quick dog")
        assert out.executor == "serial"
        assert out.shard_count == 2  # the shards run in this process
        assert engine._procpool is None
        engine.executor = "process"
        out = engine.search("quick dog fox")
        assert out.executor == "process"
        assert engine._procpool is not None and engine._procpool is not pool
    finally:
        engine.close()


def test_engine_close_retires_pool(tiny_collection):
    engine = _engine_pair(tiny_collection)
    pool = engine._procpool
    engine.close()
    assert pool.closed


def test_fallback_runs_the_shards_in_process(tiny_collection, tiny_index):
    """A process query sent back to this process still runs sharded,
    one shard after another, and says so: executor ``serial``."""
    from repro.obs.metrics import REGISTRY, proc_fallbacks

    fallbacks = proc_fallbacks(REGISTRY).labels(reason="ctx_override")
    engine = SearchEngine(
        tiny_collection, shards=2, executor="process",
        scoring_context=IndexScoringContext(tiny_index),
    )
    unsharded = SearchEngine(tiny_collection, shards=1)
    try:
        before = fallbacks.value
        out = engine.search("quick fox")
        assert (out.executor, out.shard_count) == ("serial", 2)
        assert fallbacks.value == before + 1
        assert engine._procpool is None
        ref = unsharded.search("quick fox")
        assert [(r.doc_id, r.score) for r in out.results] == \
            [(r.doc_id, r.score) for r in ref.results]
    finally:
        engine.close()
        unsharded.close()


def test_resolve_executor_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    assert _resolve_executor(None) == "serial"
    monkeypatch.setenv("REPRO_EXEC", "process")
    assert _resolve_executor(None) == "process"
    monkeypatch.setenv("REPRO_EXEC", "bogus")
    with pytest.raises(ConfigError):
        _resolve_executor(None)
    with pytest.raises(ConfigError):
        _resolve_executor("fibers")
    # The thread backend is gone: its name is a misconfiguration now,
    # from the environment and from the keyword alike.
    monkeypatch.setenv("REPRO_EXEC", "thread")
    with pytest.raises(ConfigError, match="serial, process") as exc:
        _resolve_executor(None)
    assert exc.value.option == "REPRO_EXEC"
    with pytest.raises(ConfigError, match="serial, process"):
        _resolve_executor("thread")


# -- generative equivalence ------------------------------------------------

_VOCAB = ("quick", "fox", "dog", "lazy", "brown", "fence")
_PROPERTY_QUERIES = (
    "quick fox",
    '"quick fox"',
    "quick (fox | dog)",
    "fox -dog",
)


@settings(max_examples=8, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(_VOCAB), min_size=2, max_size=8),
        min_size=2,
        max_size=8,
    ),
    text=st.sampled_from(_PROPERTY_QUERIES),
    scheme_name=st.sampled_from(SCHEME_NAMES),
)
def test_process_equals_serial_property(docs, text, scheme_name):
    collection = DocumentCollection()
    for words in docs:
        collection.add_text(" ".join(words))
    index = build_index(collection)
    scheme, result = _optimize(collection, index, scheme_name, text)
    serial = _serial(index, IndexScoringContext(index), scheme, result)
    try:
        pool = ProcessShardPool(pack_index(index), 2, max_workers=1)
    except ProcPoolUnavailableError as exc:
        pytest.skip(f"process pool unavailable: {exc}")
    try:
        par = execute_sharded_process(
            pool, ShardedIndex(index, 2), result.plan, scheme, result.info
        )
    finally:
        pool.close()
    assert par.results == serial
