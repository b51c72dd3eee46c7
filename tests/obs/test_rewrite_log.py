"""Optimizer rule tracing: the rewrite log must name every fired rule
with before/after cost estimates, and explain every rule that did not
fire (validity-gated, disabled, or matched nothing)."""

import pytest

from repro.api import SearchEngine
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.graft.validity import requirement_text
from repro.obs.rewrite import RewriteEvent, render_rewrite_log
from repro.sa.registry import available_schemes, get_scheme

DOCS = [
    "alpha beta alpha gamma",
    "beta gamma delta",
    "alpha gamma epsilon beta alpha",
    "delta epsilon",
    "alpha beta beta",
]


@pytest.fixture(scope="module")
def engine():
    eng = SearchEngine()
    eng.add_many(DOCS)
    return eng


def optimize(engine, scheme_name, options=None, index="default"):
    idx = engine.index if index == "default" else index
    return Optimizer(get_scheme(scheme_name), idx, options).optimize(
        engine.parse("alpha beta")
    )


@pytest.mark.parametrize("scheme_name", ["sumbest", "anysum"])
def test_every_fired_rule_logged_with_costs(engine, scheme_name):
    result = optimize(engine, scheme_name)
    fired = {e.rule for e in result.rewrites if e.applied}
    assert fired == set(result.applied)
    for event in result.rewrites:
        if event.applied:
            assert event.cost_before is not None, event.rule
            assert event.cost_after is not None, event.rule
            assert event.summary, event.rule


#: The algebraic rewrite pipeline (Table 1's rank-join / rank-union /
#: zigzag-join rows are not rules of this pipeline).
PIPELINE_RULES = {
    "selection-pushing",
    "join-reordering",
    "eager-counting",
    "pre-counting",
    "forward-scan-join",
    "eager-aggregation",
    "sort-elimination",
    "alternate-elimination",
}


def test_rewrite_log_covers_every_scheme(engine):
    """Every scheme's log considers every pipeline rule at least once."""
    for scheme_name in available_schemes():
        result = optimize(engine, scheme_name)
        considered = {e.rule for e in result.rewrites}
        assert considered >= PIPELINE_RULES, scheme_name


def test_gated_rule_cites_table1_requirement(engine):
    result = optimize(engine, "bestsum-mindist")
    by_rule = {e.rule: e for e in result.rewrites}
    event = by_rule["pre-counting"]
    assert not event.allowed and not event.applied
    assert event.verdict == requirement_text("pre-counting")
    assert "requires" in event.verdict


def test_disabled_rule_logged_as_disabled(engine):
    options = OptimizerOptions(pre_counting=False)
    result = optimize(engine, "sumbest", options)
    by_rule = {e.rule: e for e in result.rewrites}
    assert by_rule["pre-counting"].verdict == "disabled"
    assert not by_rule["pre-counting"].applied
    assert "pre-counting" not in result.applied


def test_no_index_costs_are_none(engine):
    result = optimize(engine, "sumbest", index=None)
    by_rule = {e.rule: e for e in result.rewrites}
    assert all(e.cost_before is None for e in result.rewrites)
    assert by_rule["join-reordering"].verdict == "no index statistics"
    assert not by_rule["join-reordering"].applied


def test_render_rewrite_log_format(engine):
    result = optimize(engine, "sumbest")
    text = render_rewrite_log(result.rewrites)
    lines = text.splitlines()
    assert len(lines) == len(result.rewrites)
    for event, line in zip(result.rewrites, lines):
        assert line.startswith(event.rule)
        if event.applied:
            assert "[fired]" in line
            assert "cost" in line and "->" in line
    assert render_rewrite_log([]) == "(no rewrite rules considered)"


def test_event_to_dict_roundtrip():
    event = RewriteEvent(
        rule="pre-counting", allowed=True, applied=True,
        verdict="allowed", summary="s", cost_before=3.0, cost_after=1.0,
    )
    d = event.to_dict()
    assert d["rule"] == "pre-counting"
    assert d["cost_before"] == 3.0 and d["cost_after"] == 1.0


def test_search_outcome_carries_rewrite_log(engine):
    outcome = engine.search("alpha beta", scheme="sumbest")
    assert outcome.rewrite_log
    assert {e.rule for e in outcome.rewrite_log if e.applied} == set(
        outcome.applied_optimizations
    )


def test_explain_trace_rules_section(engine):
    text = engine.explain("alpha beta", scheme="sumbest", trace_rules=True)
    assert "-- rewrite log" in text
    assert "[fired]" in text
    plain = engine.explain("alpha beta", scheme="sumbest")
    assert "-- rewrite log" not in plain
