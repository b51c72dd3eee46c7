"""Engine entry-point tests."""

import pytest

from repro.errors import PlanError
from repro.exec.engine import execute, execute_streaming, make_runtime
from repro.graft.canonical import canonical_plan
from repro.graft.optimizer import Optimizer
from repro.mcalc.parser import parse_query
from repro.sa.registry import get_scheme


def test_streaming_yields_ascending_doc_order(tiny_index):
    scheme = get_scheme("sumbest")
    plan, info = canonical_plan(parse_query("fox"), scheme)
    docs = [d for d, _ in execute_streaming(plan, make_runtime(tiny_index, scheme, info))]
    assert docs == sorted(docs)


def test_execute_ranks_descending_with_doc_tiebreak(tiny_index):
    scheme = get_scheme("anysum")
    res = Optimizer(scheme, tiny_index).optimize(parse_query("fox"))
    ranked = execute(res.plan, make_runtime(tiny_index, scheme, res.info))
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    for (d1, s1), (d2, s2) in zip(ranked, ranked[1:]):
        if s1 == s2:
            assert d1 < d2


def test_top_k_is_prefix_of_full(tiny_index):
    scheme = get_scheme("meansum")
    res = Optimizer(scheme, tiny_index).optimize(parse_query("quick dog"))
    runtime = make_runtime(tiny_index, scheme, res.info)
    full = execute(res.plan, runtime)
    runtime2 = make_runtime(tiny_index, scheme, res.info)
    top = execute(res.plan, runtime2, top_k=2)
    assert top == full[:2]


def test_every_top_k_is_the_sorted_prefix_ties_included(tiny_index):
    """``top_k`` selects with a bounded heap; that must be ``sorted(...)[:k]``
    for every k, including where the cut falls inside a run of tied
    scores (the constant scheme below ties every document)."""

    class Flat(type(get_scheme("anysum"))):
        name = "flat"

        def omega(self, ctx, doc_id, score):
            return 1.0 if doc_id % 3 else 2.0

    for scheme in (Flat(), get_scheme("sumbest")):
        res = Optimizer(scheme, tiny_index).optimize(parse_query("fox | dog | quick"))
        full = execute(res.plan, make_runtime(tiny_index, scheme, res.info))
        assert len(full) >= 5
        assert full == sorted(full, key=lambda pair: (-pair[1], pair[0]))
        for k in range(1, len(full) + 3):
            top = execute(res.plan, make_runtime(tiny_index, scheme, res.info), top_k=k)
            assert top == full[:k]


def test_incomplete_plan_rejected(tiny_index):
    scheme = get_scheme("sumbest")
    from repro.ma.translate import matching_subplan
    from repro.graft.canonical import make_query_info

    q = parse_query("fox")
    info = make_query_info(q, scheme)
    with pytest.raises(PlanError):
        list(execute_streaming(
            matching_subplan(q), make_runtime(tiny_index, scheme, info)
        ))


def test_no_matches_yields_empty(tiny_index):
    scheme = get_scheme("sumbest")
    res = Optimizer(scheme, tiny_index).optimize(parse_query("qzxv"))
    assert execute(res.plan, make_runtime(tiny_index, scheme, res.info)) == []


def test_runtime_defaults_to_index_context(tiny_index):
    scheme = get_scheme("sumbest")
    from repro.graft.canonical import make_query_info
    from repro.sa.context import IndexScoringContext

    runtime = make_runtime(
        tiny_index, scheme, make_query_info(parse_query("fox"), scheme)
    )
    assert isinstance(runtime.ctx, IndexScoringContext)
    assert runtime.ctx.index is tiny_index


def test_streaming_honours_partial_limits_and_the_tracer():
    """``execute_streaming`` is ``execute``'s pull loop: a partial trip ends
    the stream (no exception) with the limit named, the pairs it yielded
    rank to ``execute``'s partial answer, and a tracer times the stream."""
    from repro.bench.workload import bench_fixture
    from repro.exec.engine import rank_key
    from repro.exec.limits import QueryLimits
    from repro.obs.trace import Tracer

    fx = bench_fixture(200)
    scheme = get_scheme("sumbest")
    res = Optimizer(scheme, fx.index).optimize(
        parse_query("fault line", fx.collection.analyzer)
    )
    limits = QueryLimits(max_rows=5, on_limit="partial")
    ranked_rt = make_runtime(fx.index, scheme, res.info, limits=limits)
    ranked = execute(res.plan, ranked_rt)
    assert ranked_rt.guard.tripped == "max_rows"
    runtime = make_runtime(fx.index, scheme, res.info, limits=limits)
    streamed = list(execute_streaming(res.plan, runtime))
    assert runtime.guard.tripped == "max_rows"
    assert ranked and sorted(streamed, key=rank_key) == ranked
    tracer = Tracer()
    runtime = make_runtime(fx.index, scheme, res.info, limits=limits, tracer=tracer)
    list(execute_streaming(res.plan, runtime))
    assert runtime.guard.tripped == "max_rows" and tracer.total_ns > 0
