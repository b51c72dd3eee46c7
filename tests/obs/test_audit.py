"""Shadow-execution score-consistency auditing (repro.obs.audit)."""

from __future__ import annotations

import pytest

from repro.api import SearchEngine
from repro.errors import GraftError, ScoreConsistencyError
from repro.exec.limits import QueryLimits
from repro.obs.audit import (
    EXTRA_DOC,
    MISSING_DOC,
    SCORE_MISMATCH,
    AuditConfig,
    AuditEvent,
    Auditor,
    diff_rankings,
    shadow_audit,
)
from repro.obs.metrics import MetricsRegistry, audit_counters

from tests.conftest import TINY_QUERIES, make_tiny_collection


@pytest.fixture()
def engine():
    return SearchEngine(
        make_tiny_collection(),
        audit=AuditConfig(rate=1.0, oracle_max_docs=50),
    )


# -- diff_rankings ---------------------------------------------------------


def test_diff_equal_rankings_is_none():
    ranking = [(0, 1.5), (2, 0.5)]
    assert diff_rankings(ranking, list(ranking), 1e-7) is None


def test_diff_within_tolerance_is_none():
    assert diff_rankings([(0, 1.0 + 1e-9)], [(0, 1.0)], 1e-7) is None


def test_diff_missing_doc_reported_first():
    # Doc 1 missing AND doc 0 mis-scored: missing wins.
    got = [(0, 9.0)]
    want = [(0, 1.0), (1, 2.0)]
    assert diff_rankings(got, want, 1e-7) == (MISSING_DOC, 1, 2.0, None)


def test_diff_extra_doc():
    got = [(0, 1.0), (3, 0.5)]
    want = [(0, 1.0)]
    assert diff_rankings(got, want, 1e-7) == (EXTRA_DOC, 3, None, 0.5)


def test_diff_score_mismatch_lowest_doc_first():
    got = [(0, 1.0), (1, 5.0), (2, 7.0)]
    want = [(0, 1.0), (1, 2.0), (2, 3.0)]
    kind, doc, expected, actual = diff_rankings(got, want, 1e-7)
    assert (kind, doc) == (SCORE_MISMATCH, 1)
    assert expected == 2.0 and actual == 5.0


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_config_rejects_bad_rate(rate):
    with pytest.raises(GraftError):
        AuditConfig(rate=rate)


def test_config_rejects_bad_mode():
    with pytest.raises(GraftError):
        AuditConfig(mode="panic")


def test_config_rejects_negative_tolerance():
    with pytest.raises(GraftError):
        AuditConfig(tolerance=-1e-9)


# -- engine integration ----------------------------------------------------


def test_every_query_audited_at_rate_one(engine):
    for text in TINY_QUERIES:
        outcome = engine.search(text)
        assert outcome.audit is not None, text
        assert outcome.audit.ok, outcome.audit.describe()
        assert outcome.audit.reference == "canonical+oracle"
        assert outcome.audit.query == text


def test_audit_records_fired_rules(engine):
    outcome = engine.search("quick fox")
    assert outcome.audit is not None
    assert "selection-pushing" in outcome.audit.rules
    assert outcome.audit.suspect_rules == ()


def test_audit_respects_top_k(engine):
    outcome = engine.search("quick (fox | dog)", top_k=2)
    assert len(outcome.results) <= 2
    assert outcome.audit is not None and outcome.audit.ok


def test_audit_covers_anysum_top_k(engine):
    outcome = engine.search("quick fox", scheme="anysum", top_k=3)
    assert outcome.audit is not None
    assert outcome.audit.ok, outcome.audit.describe()


def test_no_audit_config_means_no_auditor():
    eng = SearchEngine(make_tiny_collection())
    assert eng._auditor is None
    assert eng.search("quick fox").audit is None


def test_rate_zero_never_constructs_auditor():
    eng = SearchEngine(make_tiny_collection(), audit=AuditConfig(rate=0.0))
    assert eng._auditor is None
    assert eng.search("quick fox").audit is None


def test_sampling_is_deterministic():
    eng = SearchEngine(make_tiny_collection(), audit=AuditConfig(rate=0.5))
    audited = [
        eng.search("quick fox").audit is not None for _ in range(6)
    ]
    # Error-accumulator: exactly every other query, starting with the
    # first (0.5 + 0.5 reaches 1.0 on the... second query).
    assert audited == [False, True, False, True, False, True]


def test_quarter_rate_audits_every_fourth():
    eng = SearchEngine(make_tiny_collection(), audit=AuditConfig(rate=0.25))
    audited = [
        eng.search("quick fox").audit is not None for _ in range(8)
    ]
    assert audited == [False, False, False, True, False, False, False, True]


def test_degraded_outcome_not_audited_and_keeps_slot(engine):
    degraded = engine.search(
        "quick (fox | dog)",
        limits=QueryLimits(max_rows=1, on_limit="partial"),
    )
    assert degraded.degraded
    assert degraded.audit is None
    # The skipped query did not consume the sampling slot: the next
    # (healthy) query is still audited at rate 1.0.
    assert engine.search("quick fox").audit is not None


def test_strict_mode_raises_on_divergence():
    auditor = Auditor(AuditConfig(mode="strict"))
    event = AuditEvent(
        query="q", scheme="s", ok=False, reference="canonical",
        checked=1, divergence=SCORE_MISMATCH, doc_id=0,
        expected=1.0, got=2.0,
    )
    with pytest.raises(ScoreConsistencyError) as exc_info:
        auditor.raise_if_strict(event)
    assert exc_info.value.event is event
    auditor.raise_if_strict(
        AuditEvent(query="q", scheme="s", ok=True,
                   reference="canonical", checked=1)
    )  # ok events never raise


def test_log_mode_never_raises():
    auditor = Auditor(AuditConfig(mode="log"))
    auditor.raise_if_strict(
        AuditEvent(query="q", scheme="s", ok=False, reference="canonical",
                   checked=1, divergence=EXTRA_DOC, doc_id=1, got=1.0)
    )


def test_shadow_audit_counts_into_registry(tiny_index, tiny_collection):
    from repro.graft.optimizer import Optimizer
    from repro.mcalc.parser import parse_query
    from repro.sa.registry import get_scheme

    registry = MetricsRegistry()
    scheme = get_scheme("sumbest")
    query = parse_query("quick fox", tiny_collection.analyzer)
    result = Optimizer(scheme, tiny_index).optimize(query)
    from repro.exec.engine import execute, make_runtime

    ranked = execute(
        result.plan, make_runtime(tiny_index, scheme, result.info)
    )
    event = shadow_audit(
        tiny_index, scheme, query, ranked,
        rewrite_log=result.rewrites,
        registry=registry,
    )
    assert event.ok
    counter = audit_counters(registry)
    assert counter.labels(scheme="sumbest", result="ok").value == 1


def test_event_to_dict_round_trips_shape():
    event = AuditEvent(
        query="quick fox", scheme="sumbest", ok=True,
        reference="canonical", checked=4, rules=("selection-pushing",),
    )
    payload = event.to_dict()
    assert payload["ok"] is True
    assert payload["rules"] == ["selection-pushing"]
    assert payload["divergence"] is None
    assert "audit ok" in event.describe()
