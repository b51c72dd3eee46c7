"""Fused unary chains: the same answers, counters and heartbeat as one
operator per node.

``compile_plan`` fuses every run of per-document unary operators into one
chain unless a tracer or a fault injector is attached, in which case every
chain has length one.  An *empty* fault injector plants nothing and wraps
nothing, so ``search(..., faults=FaultInjector([]))`` executes exactly the
unfused tree (serial); ``profile=True`` does the same on every executor.
These tests hold the two trees against each other: scores and order
bit-identical (``==``, no tolerance) and the work counters equal —
except where the untraced plan compiles a pre-counted block, whose
counters follow the block rule (:func:`tests.conftest.assert_block_metrics`).
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchEngine
from repro.bench.workload import PAPER_QUERIES
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.exec.compile import compile_plan
from repro.exec.engine import execute, make_runtime
from repro.exec.faults import FaultInjector
from repro.exec.iterator import Runtime
from repro.exec.limits import QueryGuard, QueryLimits
from repro.exec.misc_ops import ChainOp
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.mcalc.parser import parse_query
from repro.sa.context import IndexScoringContext
from repro.sa.registry import available_schemes, get_scheme

from tests.conftest import (
    TINY_QUERIES,
    assert_block_metrics,
    make_tiny_collection,
    plan_has_block,
)

CORPUS_DOCS = 600
SCORE_STAGES = (
    "ScoreInitOp", "CombinePhiOp", "GroupScoreOp", "AlternateElimOp",
    "FinalizeOp",
)


@lru_cache(maxsize=None)
def corpus():
    return generate_corpus(SyntheticCorpusConfig(num_docs=CORPUS_DOCS, seed=20110612))


def _serial(collection) -> SearchEngine:
    return SearchEngine(collection, shards=1, executor="serial")


@lru_cache(maxsize=None)
def _memory_engine() -> SearchEngine:
    return _serial(corpus())


@lru_cache(maxsize=None)
def _sharded_engine() -> SearchEngine:
    return SearchEngine(corpus(), shards=2, executor="serial")


@pytest.fixture(scope="module")
def packed_engine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fused") / "store"
    _memory_engine().save(root)
    engine = SearchEngine.load(root)
    engine.shards, engine.executor = 1, "serial"
    return engine


def answer(outcome):
    return [(r.doc_id, r.score) for r in outcome.results]


def uses_block(engine, text, scheme, optimize=True, options=None) -> bool:
    """Whether ``engine.search(text, ...)`` untraced runs a block."""
    optimizer = Optimizer(get_scheme(scheme), engine.index, options)
    query = engine.parse(text)
    result = optimizer.optimize(query) if optimize else optimizer.canonical(query)
    return plan_has_block(result.plan)


def assert_same_run(fused, unfused, blocked=False):
    assert answer(fused) == answer(unfused)
    if blocked:
        assert_block_metrics(fused.metrics, unfused.metrics)
    else:
        assert fused.metrics.as_dict() == unfused.metrics.as_dict()


# -- (a) fused == chain-of-one ------------------------------------------------


@pytest.mark.parametrize("scheme", available_schemes())
@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_fused_equals_unfused_on_every_substrate(name, scheme, packed_engine):
    text = PAPER_QUERIES[name]
    blocked = uses_block(_memory_engine(), text, scheme)
    for engine in (_memory_engine(), packed_engine):
        fused = engine.search(text, scheme=scheme)
        assert fused.executor == "serial"
        unfused = engine.search(text, scheme=scheme, faults=FaultInjector([]))
        assert_same_run(fused, unfused, blocked)
        assert_same_run(fused, engine.search(text, scheme=scheme, profile=True), blocked)
    sharded = _sharded_engine()
    fused = sharded.search(text, scheme=scheme)
    assert fused.executor == "serial" and fused.shard_count == 2
    assert_same_run(fused, sharded.search(text, scheme=scheme, profile=True), blocked)
    # Sharding never changes an answer either (global scoring context).
    assert answer(fused) == answer(_memory_engine().search(text, scheme=scheme))


@pytest.mark.parametrize("scheme", available_schemes())
@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_fused_equals_unfused_on_the_canonical_plan(name, scheme):
    engine = _memory_engine()
    text = PAPER_QUERIES[name]
    fused = engine.search(text, scheme=scheme, optimize=False)
    unfused = engine.search(
        text, scheme=scheme, optimize=False, faults=FaultInjector([])
    )
    assert_same_run(fused, unfused, uses_block(engine, text, scheme, optimize=False))


#: Optimizer settings whose plans put Select, Forget, Count and the
#: forward-scan join inside or under the fused runs.
OPTION_SETS = {
    "default": None,
    "no-pre-counting": OptimizerOptions(pre_counting=False),
    "no-selection-pushing": OptimizerOptions(selection_pushing=False),
    "no-eager-aggregation": OptimizerOptions(eager_aggregation=False),
    "forward-scan": OptimizerOptions(forward_scan=True),
}


@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("scheme", available_schemes())
@pytest.mark.parametrize("text", TINY_QUERIES)
def test_fused_equals_unfused_on_the_tiny_suite(text, scheme, options):
    engine = _serial(make_tiny_collection())
    kwargs = dict(scheme=scheme, options=OPTION_SETS[options])
    for optimize in (True, False):
        fused = engine.search(text, optimize=optimize, **kwargs)
        unfused = engine.search(
            text, optimize=optimize, faults=FaultInjector([]), **kwargs
        )
        blocked = uses_block(
            engine, text, scheme, optimize, OPTION_SETS[options]
        )
        assert_same_run(fused, unfused, blocked)


#: graftbench-style templates (``graftbench/queries.py``): a slot letter
#: names a document-frequency band of the corpus vocabulary.
TEMPLATES = (
    "{H} {H}",
    "{H} {H} {M}",
    "{H} ({M} | {M})",
    "{M} | {L}",
    "({H} {H})WINDOW[{N}]",
    "({H} {M})PROXIMITY[{N}]",
    "{H} ({H} {M})WINDOW[{N}]",
    "({H} | {M}) ({H} | {M})",
    "{M}",
    '{M} | "{H} {H}"',
)


@lru_cache(maxsize=None)
def _bands() -> dict[str, list[str]]:
    df: dict[str, int] = {}
    for doc in corpus():
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    ranked = sorted(df, key=lambda t: (-df[t], t))
    return {"H": ranked[8:38], "M": ranked[38:118], "L": ranked[118:400]}


@st.composite
def template_queries(draw) -> str:
    text = draw(st.sampled_from(TEMPLATES))
    bands = _bands()
    used: set[str] = set()
    while "{" in text:
        start = text.index("{")
        letter = text[start + 1]
        if letter == "N":
            value = str(draw(st.sampled_from((5, 10, 20, 50))))
        else:
            value = draw(
                st.sampled_from(bands[letter]).filter(lambda t: t not in used)
            )
            used.add(value)
        text = text[:start] + value + text[start + 3:]
    return text


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    text=template_queries(),
    scheme=st.sampled_from(available_schemes()),
    options=st.sampled_from(sorted(OPTION_SETS)),
)
def test_fused_equals_unfused_property(text, scheme, options):
    engine = _memory_engine()
    kwargs = dict(scheme=scheme, top_k=10, options=OPTION_SETS[options])
    fused = engine.search(text, **kwargs)
    blocked = uses_block(engine, text, scheme, options=OPTION_SETS[options])
    unfused = engine.search(text, faults=FaultInjector([]), **kwargs)
    assert_same_run(fused, unfused, blocked)
    assert_same_run(fused, engine.search(text, profile=True, **kwargs), blocked)


# -- what is (and is not) fused -----------------------------------------------


def _plan(text: str, scheme_name: str, index, analyzer, optimize=True):
    scheme = get_scheme(scheme_name)
    optimizer = Optimizer(scheme, index)
    query = parse_query(text, analyzer)
    result = optimizer.optimize(query) if optimize else optimizer.canonical(query)
    return scheme, result


def test_the_tail_chain_compiles_to_one_operator_and_to_four_when_observed():
    engine = _memory_engine()
    scheme, result = _plan(
        PAPER_QUERIES["Q4"], "sumbest", engine.index, engine.collection.analyzer
    )
    root = compile_plan(result.plan, make_runtime(engine.index, scheme, result.info))
    assert isinstance(root, ChainOp)
    assert root.op_name == "ScoreInitOp+GroupScoreOp+CombinePhiOp+FinalizeOp"
    # The run's input is the join below it, not another chain stage.
    assert not isinstance(root.child.op, ChainOp)

    probe = FaultInjector([])
    root = compile_plan(
        result.plan, make_runtime(engine.index, scheme, result.info, faults=probe)
    )
    assert root.op_name == "FinalizeOp"
    assert [name for name in probe.seen_ops if name in SCORE_STAGES] == [
        "ScoreInitOp", "GroupScoreOp", "CombinePhiOp", "FinalizeOp",
    ]


def test_the_scored_leaf_rule_keeps_precedence():
    engine = _memory_engine()
    scheme, result = _plan("fault", "sumbest", engine.index, engine.collection.analyzer)
    root = compile_plan(result.plan, make_runtime(engine.index, scheme, result.info))
    assert root.op_name == "CombinePhiOp+FinalizeOp"
    assert type(root.child.op).__name__ == "ScoredPreCountScanOp"


def test_a_finished_run_is_freed_without_the_cyclic_collector():
    """Kernels close over values, not over their operators, so a fused
    tree is acyclic: dropping the root frees every stage at once (the
    serving loop compiles one tree per search)."""
    import gc
    import weakref

    engine = _memory_engine()
    scheme, result = _plan(
        PAPER_QUERIES["Q8"], "sumbest", engine.index, engine.collection.analyzer
    )
    gc.collect()
    gc.disable()
    try:
        runtime = make_runtime(engine.index, scheme, result.info)
        root = compile_plan(result.plan, runtime)
        while root.next_doc() is not None:
            pass
        stages = [weakref.ref(stage) for stage in root._below + (root,)]
        assert len(stages) == 4
        del root
        assert [ref() for ref in stages] == [None] * 4
    finally:
        gc.enable()


# -- (c) builtin numbers all the way out -----------------------------------


@pytest.mark.parametrize("scheme", available_schemes())
def test_results_are_builtin_int_and_float(scheme, packed_engine):
    for engine in (_memory_engine(), packed_engine, _sharded_engine()):
        for text in (PAPER_QUERIES["Q4"], PAPER_QUERIES["Q8"], PAPER_QUERIES["Q9"]):
            outcome = engine.search(text, scheme=scheme, top_k=10)
            assert outcome.results
            for r in outcome.results:
                assert type(r.doc_id) is int
                assert type(r.score) is float
            payload = {
                "results": [
                    {"doc_id": r.doc_id, "score": r.score} for r in outcome.results
                ],
                "metrics": outcome.metrics.as_dict(),
            }
            assert json.loads(json.dumps(payload)) == payload


# -- (d) lazy billing ---------------------------------------------------------


def test_delta_abandons_the_rest_of_a_multi_row_group():
    """AnySum over a positional join: delta takes the first satisfying
    combination of each document and abandons the rest, so exactly one
    joined row per answered document is ever billed — fused or not."""
    engine = _serial(make_tiny_collection())
    text = "(quick fox dog)WINDOW[6]"
    fused = engine.search(text, scheme="anysum")
    assert "delta[doc]" in fused.plan_text
    unfused = engine.search(text, scheme="anysum", faults=FaultInjector([]))
    assert_same_run(fused, unfused)
    assert fused.metrics.rows_joined == unfused.metrics.rows_joined
    # Document 4 ("quick fox quick fox dog dog dog lazy") alone has 2*2*3
    # combinations; draining the groups instead of abandoning them is what
    # the exhaustive scheme below has to do.
    drained = engine.search(text, scheme="sumbest")
    assert fused.metrics.rows_joined < drained.metrics.rows_joined
    assert fused.metrics.positions_scanned <= drained.metrics.positions_scanned


# -- (e) the guard heartbeat --------------------------------------------------


def _docs_before_deadline(index, scheme, result, faults) -> tuple[int, int]:
    """Documents scored before an already-expired deadline is noticed, and
    how often the guard looked at the clock."""
    ticks = iter(range(1_000_000))
    limits = QueryLimits(deadline_ms=1.0, on_limit="partial")
    # The fake clock jumps a second per reading: the deadline is over by
    # the first consultation after start().
    guard = QueryGuard(limits, clock=lambda: float(next(ticks)))
    runtime = Runtime(
        index=index, ctx=IndexScoringContext(index), scheme=scheme,
        info=result.info, guard=guard, faults=faults,
    )
    pairs = execute(result.plan, runtime)
    assert guard.tripped == "deadline_ms"
    return len(pairs), guard.deadline_checks


@pytest.mark.parametrize("scheme_name", ["sumbest", "anysum", "event-model"])
def test_deadline_trips_inside_a_fused_chain_as_early_as_before(scheme_name):
    engine = _memory_engine()
    # The phrase keeps the union row-at-a-time: a union of pre-counted
    # leaves alone compiles to one block (its heartbeat is checked in
    # test_precount_block.py).
    text = '"san francisco" | fault | line'
    scheme, result = _plan(text, scheme_name, engine.index, engine.collection.analyzer)
    assert not plan_has_block(result.plan)
    total = len(engine.search(text, scheme=scheme_name).results)
    fused, fused_checks = _docs_before_deadline(engine.index, scheme, result, None)
    unfused, unfused_checks = _docs_before_deadline(
        engine.index, scheme, result, FaultInjector([])
    )
    assert fused_checks == unfused_checks == 1
    assert 0 < unfused < total
    # A chain beats once per stage, in one call: the deadline is noticed in
    # the same document, give or take the one the 256th beat falls in.
    assert abs(fused - unfused) <= 1


# -- (f) profiling sees the logical tree --------------------------------------

#: ``(depth, label, op)`` of the profiled trace, recorded at the commit
#: before chains were fused (same corpus, same optimizer).
TRACES_BEFORE_FUSION = {
    ("Q4", "sumbest"): [
        (0, "pi[omega]", "FinalizeOp"),
        (1, "pi[Phi]", "CombinePhiOp"),
        (2, "gamma[alt]", "GroupScoreOp"),
        (3, "pi[alpha: p2, p1, p0, p3]", "ScoreInitOp"),
        (4, "zigzag-join", "MergeJoinOp"),
        (5, "zigzag-join", "MergeJoinOp"),
        (6, "zigzag-join", "MergeJoinOp"),
        (7, "CA(p2:'fault')", "PreCountScanOp"),
        (7, "CA(p1:'francisco')", "PreCountScanOp"),
        (6, "CA(p0:'san')", "PreCountScanOp"),
        (5, "CA(p3:'line')", "PreCountScanOp"),
    ],
    ("Q8", "sumbest"): [
        (0, "pi[omega]", "FinalizeOp"),
        (1, "pi[Phi]", "CombinePhiOp"),
        (2, "gamma[alt]", "GroupScoreOp"),
        (3, "pi[alpha: p2]", "ScoreInitOp"),
        (4, "zigzag-join", "MergeJoinOp"),
        (5, "gamma[alt]", "GroupScoreOp"),
        (6, "pi[alpha: p0, p1]", "ScoreInitOp"),
        (7, "zigzag-join[WINDOW(p0, p1, 50)]", "MergeJoinOp"),
        (8, "A(p0:'windows')", "AtomScanOp"),
        (8, "A(p1:'emulator')", "AtomScanOp"),
        (5, "outer-union", "UnionOp"),
        (6, "CA(p2:'foss')", "PreCountScanOp"),
        (6, "gamma[alt]", "GroupScoreOp"),
        (7, "pi[alpha: p3, p4]", "ScoreInitOp"),
        (8, "zigzag-join[DISTANCE(p3, p4, 1)]", "MergeJoinOp"),
        (9, "A(p3:'free')", "AtomScanOp"),
        (9, "A(p4:'software')", "AtomScanOp"),
    ],
    ("Q8", "anysum"): [
        (0, "pi[omega]", "FinalizeOp"),
        (1, "pi[Phi]", "CombinePhiOp"),
        (2, "pi[alpha: p0, p1, p2, p3, p4]", "ScoreInitOp"),
        (3, "delta[doc]", "AlternateElimOp"),
        (4, "zigzag-join", "MergeJoinOp"),
        (5, "zigzag-join[WINDOW(p0, p1, 50)]", "MergeJoinOp"),
        (6, "A(p0:'windows')", "AtomScanOp"),
        (6, "A(p1:'emulator')", "AtomScanOp"),
        (5, "outer-union", "UnionOp"),
        (6, "CA(p2:'foss')", "PreCountScanOp"),
        (6, "zigzag-join[DISTANCE(p3, p4, 1)]", "MergeJoinOp"),
        (7, "A(p3:'free')", "AtomScanOp"),
        (7, "A(p4:'software')", "AtomScanOp"),
    ],
}


def _flatten(node, depth=0):
    yield (depth, node.label, node.op_name)
    for child in node.children:
        yield from _flatten(child, depth + 1)


@pytest.mark.parametrize("name,scheme", sorted(TRACES_BEFORE_FUSION))
def test_profile_reports_the_tree_it_reported_before_fusion(name, scheme):
    engine = _memory_engine()
    text = PAPER_QUERIES[name]
    plain = engine.search(text, scheme=scheme)
    profiled = engine.search(text, scheme=scheme, profile=True)
    assert plain.results
    assert answer(profiled) == answer(plain)
    assert list(_flatten(profiled.stats)) == TRACES_BEFORE_FUSION[(name, scheme)]
    # Every node did its own counting: a chain of one per logical operator.
    for node in profiled.stats.walk():
        assert node.stats.calls > 0
