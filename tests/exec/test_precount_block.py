"""Pre-counted blocks against the row-at-a-time tree they replace.

An untraced plan compiles every maximal join/union subtree over ``CA``
leaves to one :class:`repro.exec.block_ops.PreCountBlockOp`; a profiled or
fault-injected one keeps the row tree (``MergeJoinOp`` / ``UnionOp`` over
``PreCountScanOp``), which is the reference here.  Answers must be ``==``
(doc ids, scores, order); positions and grouped rows are billed exactly,
leaf entries, joined rows and charged rows at most as the row tree bills
them (:func:`tests.conftest.assert_block_metrics`).
"""

from __future__ import annotations

import gc
import weakref
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchEngine
from repro.bench.workload import PAPER_QUERIES
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.errors import QueryTimeoutError, ResourceExhaustedError
from repro.exec import block_ops
from repro.exec.block_ops import PreCountBlockOp, is_precount_block
from repro.exec.compile import compile_plan
from repro.exec.engine import execute, make_runtime, rank_key
from repro.exec.faults import FaultInjector
from repro.exec.iterator import Runtime
from repro.exec.limits import QueryGuard, QueryLimits
from repro.graft.optimizer import Optimizer
from repro.index.shard import ShardedIndex
from repro.mcalc.parser import parse_query
from repro.obs.trace import Tracer
from repro.sa.context import IndexScoringContext
from repro.sa.registry import available_schemes, get_scheme

from tests.conftest import assert_block_metrics, plan_has_block

CORPUS_DOCS = 300
ABSENT = "zyzzyva"


def shipped_schemes() -> list[str]:
    return [
        name for name in available_schemes()
        if type(get_scheme(name)).__module__.startswith("repro.")
    ]


@lru_cache(maxsize=None)
def corpus():
    return generate_corpus(SyntheticCorpusConfig(num_docs=CORPUS_DOCS, seed=20110613))


@lru_cache(maxsize=None)
def vocabulary() -> tuple[str, ...]:
    """Terms from frequent to rare (the most frequent few left out, as
    graftbench does), plus one the corpus does not hold."""
    df: dict[str, int] = {}
    for doc in corpus():
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    ranked = sorted(df, key=lambda t: (-df[t], t))
    return tuple(ranked[8:16] + ranked[40:44] + ranked[150:152]) + (ABSENT,)


@lru_cache(maxsize=None)
def memory_engine() -> SearchEngine:
    return SearchEngine(corpus(), shards=1, executor="serial")


@pytest.fixture(scope="module")
def substrates(tmp_path_factory):
    """The four ways a plan meets an index: the in-memory ``PackedIndex``,
    one reloaded from a store, two in-process shards and two process
    shards."""
    root = tmp_path_factory.mktemp("blocks") / "store"
    memory_engine().save(root)
    reloaded = SearchEngine.load(root)
    reloaded.shards, reloaded.executor = 1, "serial"
    in_process = SearchEngine(corpus(), shards=2, executor="serial")
    processes = SearchEngine(corpus(), shards=2, executor="process")
    yield {
        "packed": memory_engine(),
        "reloaded": reloaded,
        "in_process": in_process,
        "processes": processes,
    }
    for engine in (reloaded, in_process, processes):
        engine.close()


def answer(outcome):
    return [(r.doc_id, r.score) for r in outcome.results]


def _plan(engine: SearchEngine, text: str, scheme_name: str):
    scheme = get_scheme(scheme_name)
    return scheme, Optimizer(scheme, engine.index).optimize(engine.parse(text))


def assert_block_equals_rows(engine: SearchEngine, text: str, scheme: str, top_k):
    block = engine.search(text, scheme=scheme, top_k=top_k)
    rows = engine.search(text, scheme=scheme, top_k=top_k, profile=True)
    assert answer(block) == answer(rows)
    assert_block_metrics(block.metrics, rows.metrics)
    if engine.shards == 1:  # a fault injector pins a search unsharded
        injected = engine.search(
            text, scheme=scheme, top_k=top_k, faults=FaultInjector([])
        )
        assert answer(block) == answer(injected)
        assert_block_metrics(block.metrics, injected.metrics)
    return block


# -- (a) block == row tree, generatively ---------------------------------------


@st.composite
def nestings(draw) -> str:
    """A random nesting of ``|`` and juxtaposition over 1-6 keywords
    (drawn with replacement: a keyword may repeat)."""
    words = draw(st.lists(st.sampled_from(vocabulary()), min_size=1, max_size=6))
    text = words[0]
    for word in words[1:]:
        op = draw(st.sampled_from((" ", " | ")))
        if draw(st.booleans()):
            text = f"({text}){op}{word}"
        else:
            text = f"{word}{op}({text})"
    return text


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(text=nestings())
def test_block_equals_row_tree_property(text, substrates):
    for scheme in shipped_schemes():
        for top_k in (None, 3):
            for engine in substrates.values():
                assert_block_equals_rows(engine, text, scheme, top_k)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_edges_and_seeks(chunk, monkeypatch):
    """Blocks seeked from above (a phrase join, an anti-join) across chunk
    boundaries answer as the row tree does."""
    monkeypatch.setattr(block_ops, "CHUNK", chunk)
    words = vocabulary()
    texts = (
        f"{words[0]} ({words[1]} | {words[9]})",
        f'({words[0]} | {words[2]}) "{words[1]} {words[3]}"',
        f"{words[0]} {words[1]} -{words[2]}",
        f"({words[0]} {words[3]}) | ({words[1]} {words[2]} {words[0]})",
    )
    engine = memory_engine()
    for text in texts:
        for scheme in ("sumbest", "anysum", "lucene", "meansum"):
            _, result = _plan(engine, text, scheme)
            assert plan_has_block(result.plan), text
            assert_block_equals_rows(engine, text, scheme, None)


# -- (b) governed runs ---------------------------------------------------------


BLOCK_TEXT = "({a} | {b}) ({c} | {d})"


def _block_text() -> str:
    w = vocabulary()
    return BLOCK_TEXT.format(a=w[0], b=w[1], c=w[2], d=w[3])


def test_max_rows_partial_returns_a_ranked_prefix():
    engine = memory_engine()
    text = _block_text()
    full = {d: s for d, s in answer(engine.search(text, scheme="sumbest"))}
    outcome = engine.search(
        text, scheme="sumbest",
        limits=QueryLimits(max_rows=40, on_limit="partial"),
    )
    assert outcome.limit_hit == "max_rows" and outcome.degraded
    got = answer(outcome)
    assert 0 < len(got) < len(full)
    assert got == sorted(got, key=rank_key)
    assert all(full[d] == s for d, s in got)


def test_max_matches_per_doc_trips_in_a_block():
    engine = memory_engine()
    text = _block_text()
    _, result = _plan(engine, text, "sumbest")
    assert plan_has_block(result.plan)
    with pytest.raises(ResourceExhaustedError) as info:
        engine.search(
            text, scheme="sumbest", limits=QueryLimits(max_matches_per_doc=3)
        )
    assert info.value.limit == "max_matches_per_doc"


def _expired_guard() -> QueryGuard:
    """A deadline the first clock reading after ``start`` finds expired."""
    ticks = iter(range(1_000_000))
    return QueryGuard(
        QueryLimits(deadline_ms=1.0, on_limit="partial"),
        clock=lambda: float(next(ticks)),
    )


def test_deadline_trips_inside_a_block():
    engine = memory_engine()
    w = vocabulary()
    text = " | ".join(w[:4])
    scheme, result = _plan(engine, text, "sumbest")
    block_node = next(n for n in result.plan.walk() if is_precount_block(n))
    guard = _expired_guard()
    guard.start()
    runtime = Runtime(
        index=engine.index, ctx=IndexScoringContext(engine.index),
        scheme=scheme, info=result.info, guard=guard,
    )
    block = PreCountBlockOp(runtime, block_node)
    pulled = 0
    with pytest.raises(QueryTimeoutError):
        while (group := block.next_doc()) is not None:
            list(group[1])
            pulled += 1
    assert guard.tripped == "deadline_ms" and guard.deadline_checks == 1
    assert 0 < pulled < len(block._out_docs)
    # The same trip through the engine: a ranked prefix, flagged.
    guard = _expired_guard()
    runtime = Runtime(
        index=engine.index, ctx=IndexScoringContext(engine.index),
        scheme=scheme, info=result.info, guard=guard,
    )
    pairs = execute(result.plan, runtime)
    assert guard.tripped == "deadline_ms"
    assert 0 < len(pairs) < len(engine.search(text, scheme="sumbest").results)
    assert pairs == sorted(pairs, key=rank_key)


# -- (c) what compiles to a block ----------------------------------------------


def _ops(op):
    yield op
    for name in ("child", "left", "right"):
        sub = getattr(op, name, None)
        if sub is not None:
            yield from _ops(getattr(sub, "op", sub))


@pytest.mark.parametrize("name", ["Q4", "Q5"])
@pytest.mark.parametrize("scheme_name", ["sumbest", "anysum", "lucene"])
def test_untraced_paper_queries_compile_a_block(name, scheme_name):
    engine = memory_engine()
    scheme, result = _plan(engine, PAPER_QUERIES[name], scheme_name)
    plain = compile_plan(result.plan, make_runtime(engine.index, scheme, result.info))
    assert any(isinstance(op, PreCountBlockOp) for op in _ops(plain))
    for observed in (
        make_runtime(engine.index, scheme, result.info, tracer=Tracer()),
        make_runtime(engine.index, scheme, result.info, faults=FaultInjector([])),
    ):
        root = compile_plan(result.plan, observed)
        assert not any(isinstance(op, PreCountBlockOp) for op in _ops(root))
    profiled = engine.search(PAPER_QUERIES[name], scheme=scheme_name, profile=True)
    ops = {node.op_name for node in profiled.stats.walk()}
    assert "PreCountBlockOp" not in ops and "MergeJoinOp" in ops


def test_a_single_leaf_or_a_positional_join_is_not_a_block():
    engine = memory_engine()
    w = vocabulary()
    for text in (w[0], f'"{w[0]} {w[1]}"', f"({w[0]} {w[1]})WINDOW[5]"):
        _, result = _plan(engine, text, "sumbest")
        assert not plan_has_block(result.plan), text


def test_block_rows_hold_builtin_ints():
    engine = memory_engine()
    scheme, result = _plan(engine, _block_text(), "sumbest")
    node = next(n for n in result.plan.walk() if is_precount_block(n))
    block = PreCountBlockOp(make_runtime(engine.index, scheme, result.info), node)
    seen = 0
    while (group := block.next_doc()) is not None:
        assert type(group[0]) is int
        for row in group[1]:
            assert all(cell is None or type(cell) is int for cell in row)
            seen += 1
    assert seen


def test_a_shard_block_reads_only_its_range():
    engine = memory_engine()
    scheme, result = _plan(engine, _block_text(), "sumbest")
    node = next(n for n in result.plan.walk() if is_precount_block(n))
    whole = PreCountBlockOp(make_runtime(engine.index, scheme, result.info), node)
    docs = whole._out_docs.tolist()
    for shard in ShardedIndex(engine.index, 3).shards:
        part = PreCountBlockOp(make_runtime(shard, scheme, result.info), node)
        assert part._out_docs.tolist() == [d for d in docs if shard.lo <= d < shard.hi]


def test_a_finished_block_plan_is_freed_without_the_cyclic_collector():
    engine = memory_engine()
    scheme, result = _plan(engine, PAPER_QUERIES["Q5"], "sumbest")
    gc.collect()
    gc.disable()
    try:
        root = compile_plan(result.plan, make_runtime(engine.index, scheme, result.info))
        while (group := root.next_doc()) is not None:
            list(group[1])
        block = next(op for op in _ops(root) if isinstance(op, PreCountBlockOp))
        ref = weakref.ref(block)
        del block, group
        del root
        assert ref() is None
    finally:
        gc.enable()


def test_parse_of_generated_nestings_is_a_block():
    """The property's texts do compile to blocks (else it would compare
    the row tree with itself)."""
    engine = memory_engine()
    w = vocabulary()
    for text in (f"{w[0]} ({w[1]} | {w[2]})", f"({w[0]} | {ABSENT}) {w[0]}"):
        query = parse_query(text, engine.collection.analyzer)
        result = Optimizer(get_scheme("anysum"), engine.index).optimize(query)
        assert plan_has_block(result.plan), text
