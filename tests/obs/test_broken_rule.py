"""The auditor catches a deliberately-broken rewrite rule.

The fixture optimizer drops the Table-1 validity gate entirely
(``_allowed`` always says yes), so alternate elimination — sound only
for constant schemes (Section 5.2.2) — fires under the non-constant
SumBest scheme and silently mis-scores documents.  This is the exact
failure mode shadow auditing exists for: the engine still returns a
plausible-looking ranking, and only the canonical-plan diff reveals it.
The auditor must (a) flag the divergence and (b) attribute it: the
fired-but-forbidden rule appears in ``suspect_rules`` by name.

(Eager aggregation cannot play the broken rule here: its *apply*
function re-checks row-firstness and raises, a deliberate second line of
defense.  Alternate elimination trusts its gate — dropping the gate is
silent, which is what makes it the right fixture.)
"""

from __future__ import annotations

import pytest

import repro.api
from repro.api import SearchEngine
from repro.errors import ScoreConsistencyError
from repro.graft.optimizer import Optimizer, OptimizerOptions
from repro.obs.audit import SCORE_MISMATCH, AuditConfig
from repro.obs.metrics import MetricsRegistry

from tests.conftest import make_tiny_collection

#: Disjunctive query: alternate elimination rewrites the OR into a
#: single combined scan, which only preserves scores for constant
#: schemes.  Under SumBest the combined scan double-counts.
QUERY = "quick (fox | dog)"

#: Eager aggregation off so the pipeline reaches alternate elimination
#: (with it on, the eager-aggregation path returns early and the broken
#: gate never gets to do damage on this query).
OPTIONS = OptimizerOptions(eager_aggregation=False)


class GateDroppingOptimizer(Optimizer):
    """An optimizer whose Table-1 validity gate always says yes."""

    def _allowed(self, name: str) -> bool:
        return True


@pytest.fixture()
def broken_engine(monkeypatch):
    monkeypatch.setattr(repro.api, "Optimizer", GateDroppingOptimizer)
    return SearchEngine(
        make_tiny_collection(),
        audit=AuditConfig(rate=1.0),
    )


def test_auditor_catches_and_attributes_gate_dropping(broken_engine):
    outcome = broken_engine.search(QUERY, scheme="sumbest", options=OPTIONS)

    event = outcome.audit
    assert event is not None
    assert not event.ok
    assert event.divergence == SCORE_MISMATCH
    assert event.doc_id is not None
    assert event.expected is not None and event.got is not None
    assert event.expected != pytest.approx(event.got)
    # Attribution: the forbidden-but-fired rule is named, and nothing
    # legitimately-fired is blamed alongside it.
    assert event.suspect_rules == ("alternate-elimination",)
    assert "alternate-elimination" in event.rules
    assert "alternate-elimination" in event.describe()


def test_exactly_one_audit_event_per_divergent_query(broken_engine):
    outcomes = [
        broken_engine.search(QUERY, scheme="sumbest", options=OPTIONS)
        for _ in range(3)
    ]
    events = [o.audit for o in outcomes]
    assert all(e is not None and not e.ok for e in events)
    # One event per search — divergences are per-query, not accumulated.
    assert len({id(e) for e in events}) == 3


def test_strict_mode_raises_with_the_event(monkeypatch):
    monkeypatch.setattr(repro.api, "Optimizer", GateDroppingOptimizer)
    eng = SearchEngine(
        make_tiny_collection(),
        audit=AuditConfig(rate=1.0, mode="strict"),
    )
    with pytest.raises(ScoreConsistencyError) as exc_info:
        eng.search(QUERY, scheme="sumbest", options=OPTIONS)
    event = exc_info.value.event
    assert event is not None
    assert event.suspect_rules == ("alternate-elimination",)


def test_divergence_counted_per_suspect_rule(monkeypatch):
    from repro.graft.optimizer import Optimizer as RealOptimizer
    from repro.mcalc.parser import parse_query
    from repro.obs.audit import shadow_audit
    from repro.obs.metrics import audit_counters, audit_divergences
    from repro.sa.registry import get_scheme

    collection = make_tiny_collection()
    from repro.index.builder import build_index

    index = build_index(collection)
    scheme = get_scheme("sumbest")
    query = parse_query(QUERY, collection.analyzer)
    broken = GateDroppingOptimizer(scheme, index, OPTIONS).optimize(query)

    from repro.exec.engine import execute, make_runtime

    ranked = execute(broken.plan, make_runtime(index, scheme, broken.info))
    registry = MetricsRegistry()
    event = shadow_audit(
        index, scheme, query, ranked,
        rewrite_log=broken.rewrites,
        registry=registry,
    )
    assert not event.ok
    assert audit_counters(registry).labels(
        scheme="sumbest", result="divergence"
    ).value == 1
    assert audit_divergences(registry).labels(
        rule="alternate-elimination"
    ).value == 1
    # Sanity: the honest optimizer on the same query passes its audit.
    honest = RealOptimizer(scheme, index, OPTIONS).optimize(query)
    ranked_ok = execute(honest.plan, make_runtime(index, scheme, honest.info))
    ok_event = shadow_audit(
        index, scheme, query, ranked_ok,
        rewrite_log=honest.rewrites,
        registry=registry,
    )
    assert ok_event.ok
