"""The telemetry-off and export-off paths over the paper workload.

A library search binds no request context, so every instrumentation
site must reduce to the shared no-op span; a hub without an exporter
must never build a unified trace; and neither telemetry nor span export
may change an answer.  Each check is exact, so it holds on any machine.
"""

from __future__ import annotations

import pytest

from repro.api import SearchEngine
from repro.bench.workload import PAPER_QUERIES, bench_fixture
from repro.exec.cache import CacheConfig
from repro.obs import spans, telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanExporter
from repro.obs.telemetry import RequestTelemetry, TelemetryHub

SCHEME = "sumbest"
QUERIES = list(PAPER_QUERIES.values())


@pytest.fixture(scope="module")
def engine():
    # Caches off: every search runs parse, optimize and execute, so
    # every instrumented site is reached.
    engine = SearchEngine(
        bench_fixture(num_docs=600).collection, cache=CacheConfig.off()
    )
    yield engine
    engine.close()


def answers(engine, text):
    return [(r.doc_id, r.score) for r in engine.search(text, scheme=SCHEME)]


def answers_under(hub, engine, text):
    """``answers`` inside one request of ``hub``, as the service runs it."""
    rt = hub.begin(route="/search", query=text, scheme=SCHEME)
    with telemetry.bound(rt):
        got = answers(engine, text)
    hub.finish(rt, 200)
    return got


def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called on the off path")

    return call


def test_no_request_context_constructs_no_span(engine, monkeypatch):
    monkeypatch.setattr(telemetry, "_Span", forbidden("telemetry._Span"))
    assert telemetry.current() is None
    for text in QUERIES:
        answers(engine, text)
    # The patch bites: a bound request does construct spans.
    with telemetry.bound(RequestTelemetry(route="/search")):
        with pytest.raises(AssertionError, match="_Span"):
            answers(engine, QUERIES[0])


def test_hub_without_exporter_never_builds_a_trace(engine, monkeypatch):
    monkeypatch.setattr(spans, "build_trace", forbidden("build_trace"))
    hub = TelemetryHub()
    for text in QUERIES:
        answers_under(hub, engine, text)
    assert hub.finished == len(QUERIES)
    # The patch bites: the same request under an exporter builds one.
    exporting = TelemetryHub(exporter=SpanExporter(registry=MetricsRegistry()))
    with pytest.raises(AssertionError, match="build_trace"):
        answers_under(exporting, engine, QUERIES[0])


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_telemetry_and_export_never_change_an_answer(engine, name):
    text = PAPER_QUERIES[name]
    off = answers(engine, text)
    assert off  # an empty answer would compare nothing
    assert answers_under(TelemetryHub(), engine, text) == off
    exporter = SpanExporter(registry=MetricsRegistry())
    assert answers_under(TelemetryHub(exporter=exporter), engine, text) == off
    assert len(exporter.ring) == 1  # the export pass really exported
