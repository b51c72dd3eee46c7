"""The score-consistency gate CI runs: audit everything, strictly.

``audit_rate=1.0, audit_mode="strict"`` across every registered scheme
and every tiny-suite query: a single divergence between the optimized
plan and the canonical plan (or, here, the brute-force MCalc oracle)
raises and fails the build.  This is the runtime restatement of the
paper's Definition 1 over the whole rewrite pipeline — the acceptance
criterion for the auditor is that this module finds *zero* divergences
on a correct optimizer.
"""

from __future__ import annotations

import pytest

from repro.api import SearchEngine
from repro.obs.audit import AuditConfig
from repro.sa.registry import available_schemes

from tests.conftest import TINY_QUERIES, make_tiny_collection

STRICT = AuditConfig(rate=1.0, mode="strict", oracle_max_docs=100)


@pytest.fixture(scope="module")
def strict_engine():
    return SearchEngine(make_tiny_collection(), audit=STRICT)


@pytest.mark.parametrize("scheme_name", sorted(available_schemes()))
@pytest.mark.parametrize("text", TINY_QUERIES)
def test_optimized_plans_are_score_consistent(strict_engine, scheme_name, text):
    outcome = strict_engine.search(text, scheme=scheme_name)
    assert outcome.audit is not None
    assert outcome.audit.ok
    assert outcome.audit.reference == "canonical+oracle"
    assert outcome.audit.checked >= len(outcome.results)


@pytest.mark.parametrize("scheme_name", sorted(available_schemes()))
def test_top_k_truncation_is_score_consistent(strict_engine, scheme_name):
    outcome = strict_engine.search(
        "quick (fox | dog)", scheme=scheme_name, top_k=2
    )
    assert outcome.audit is not None and outcome.audit.ok


def test_anysum_top_k_is_score_consistent(strict_engine):
    outcome = strict_engine.search("quick fox", scheme="anysum", top_k=3)
    assert outcome.audit is not None and outcome.audit.ok


def test_unoptimized_plan_trivially_passes(strict_engine):
    outcome = strict_engine.search("quick fox", optimize=False)
    assert outcome.audit is not None and outcome.audit.ok
