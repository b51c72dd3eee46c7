"""Metrics registry: counter/histogram semantics, export formats, and the
engine- and store-level recording hooks."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SearchEngine
from repro.errors import GraftError
from repro.exec.iterator import ExecutionMetrics
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    prometheus_text,
    record_execution_metrics,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_increments_and_rejects_negative(registry):
    fam = registry.counter("t_total", "help")
    fam.child().inc()
    fam.child().inc(4)
    assert fam.child().value == 5
    with pytest.raises(GraftError):
        fam.child().inc(-1)


def test_labeled_children_are_independent(registry):
    fam = registry.counter("t_total", "help", labelnames=("kind",))
    fam.labels(kind="a").inc()
    fam.labels(kind="b").inc(2)
    assert fam.labels(kind="a").value == 1
    assert fam.labels(kind="b").value == 2


def test_redeclaration_idempotent_but_kind_mismatch_raises(registry):
    registry.counter("t_total", "help")
    registry.counter("t_total", "help")  # same declaration: fine
    with pytest.raises(GraftError):
        registry.histogram("t_total", "help")
    with pytest.raises(GraftError):
        registry.counter("t_total", "help", labelnames=("x",))


def test_invalid_metric_name_rejected(registry):
    with pytest.raises(GraftError):
        registry.counter("0bad-name", "help")


def test_histogram_buckets_cumulative(registry):
    fam = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0, 10.0))
    h = fam.child()
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    sample = registry.snapshot()["t_seconds"]["samples"][0]
    assert sample["count"] == 4
    assert sample["buckets"]["0.1"] == 1
    assert sample["buckets"]["1.0"] == 2
    assert sample["buckets"]["10.0"] == 3  # cumulative; 50.0 only in +Inf
    assert sample["sum"] == pytest.approx(55.55)


def test_histogram_time_context_manager(registry):
    fam = registry.histogram("t_seconds", "help")
    with fam.child().time():
        pass
    assert registry.snapshot()["t_seconds"]["samples"][0]["count"] == 1


def test_snapshot_roundtrips_through_json(registry):
    registry.counter("t_total", "help", labelnames=("k",)).labels(k="x").inc()
    registry.histogram("t_seconds", "help").child().observe(0.2)
    decoded = json.loads(registry.to_json())
    assert decoded["t_total"]["kind"] == "counter"
    assert decoded["t_seconds"]["kind"] == "histogram"


def test_prometheus_text_format(registry):
    registry.counter(
        "t_total", "things counted", labelnames=("kind",)
    ).labels(kind="a").inc(3)
    registry.histogram("t_seconds", "latency", buckets=(1.0,)).child().observe(0.5)
    text = registry.to_prometheus_text()
    assert "# HELP t_total things counted" in text
    assert "# TYPE t_total counter" in text
    assert 't_total{kind="a"} 3' in text
    assert '# TYPE t_seconds histogram' in text
    assert 't_seconds_bucket{le="1"} 1' in text
    assert 't_seconds_bucket{le="+Inf"} 1' in text
    assert "t_seconds_count 1" in text
    assert text.endswith("\n")


def test_prometheus_label_value_escaping(registry):
    """Quotes, backslashes and newlines in label *values* must be escaped
    per the exposition format, or one hostile value corrupts the scrape."""
    fam = registry.counter("t_total", "help", labelnames=("kind",))
    fam.labels(kind='say "hi"').inc()
    fam.labels(kind="back\\slash").inc(2)
    fam.labels(kind="two\nlines").inc(3)
    text = registry.to_prometheus_text()
    assert 't_total{kind="say \\"hi\\""} 1' in text
    assert 't_total{kind="back\\\\slash"} 2' in text
    assert 't_total{kind="two\\nlines"} 3' in text
    # The raw newline never reaches the output mid-sample.
    for line in text.splitlines():
        assert line.startswith(("#", "t_total"))


def test_prometheus_help_escaping(registry):
    registry.counter("t_total", "line one\nline two \\ done").child().inc()
    text = registry.to_prometheus_text()
    assert "# HELP t_total line one\\nline two \\\\ done" in text


def test_prometheus_labeled_histogram_sum_count_and_inf(registry):
    """_sum/_count carry the family labels (without le), and +Inf always
    equals the total observation count."""
    fam = registry.histogram(
        "t_seconds", "help", labelnames=("route",), buckets=(0.1, 1.0)
    )
    h = fam.labels(route="/search")
    for v in (0.0625, 0.5, 5.0):  # exactly representable: sum is exact
        h.observe(v)
    text = registry.to_prometheus_text()
    assert 't_seconds_bucket{le="0.1",route="/search"} 1' in text
    assert 't_seconds_bucket{le="1",route="/search"} 2' in text
    assert 't_seconds_bucket{le="+Inf",route="/search"} 3' in text
    assert 't_seconds_count{route="/search"} 3' in text
    assert 't_seconds_sum{route="/search"} 5.5625' in text


def test_prometheus_value_formatting(registry):
    """Integral floats print as integers; non-integral keep full repr."""
    fam = registry.gauge("t_gauge", "help", labelnames=("k",))
    fam.labels(k="int").set(3.0)
    fam.labels(k="frac").set(0.1)
    text = registry.to_prometheus_text()
    assert 't_gauge{k="int"} 3' in text
    assert 't_gauge{k="frac"} 0.1' in text


def test_concurrent_label_child_creation_converges_on_one_object(registry):
    """Threads racing to create the same labeled child must converge on
    one object — a lost child means silently dropped increments.  (The
    fix is ``setdefault`` in :meth:`MetricFamily.labels`; plain
    assignment let the loser's object shadow the winner's.)"""
    import threading

    fam = registry.counter("t_total", "help", labelnames=("kind",))
    threads = 8
    for round_no in range(50):  # fresh label each round: creation races
        barrier = threading.Barrier(threads)
        got: list[object] = []
        lock = threading.Lock()

        def grab():
            barrier.wait()  # maximize create-time contention
            child = fam.labels(kind=f"k{round_no}")
            with lock:
                got.append(child)

        workers = [threading.Thread(target=grab) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len({id(child) for child in got}) == 1
        # And the converged object is the one the family keeps serving.
        assert got[0] is fam.labels(kind=f"k{round_no}")


def test_reset_clears_values_not_declarations(registry):
    fam = registry.counter("t_total", "help")
    fam.child().inc(7)
    registry.reset()
    assert registry.counter("t_total", "help").child().value == 0


def test_record_execution_metrics_folds_counters(registry):
    m = ExecutionMetrics(
        positions_scanned=10, doc_entries_scanned=4, rows_joined=3,
        rows_grouped=2, rows_charged=9, limit_tripped="max_rows",
    )
    record_execution_metrics(m, registry)
    snap = registry.snapshot()
    assert snap["graft_positions_scanned_total"]["samples"][0]["value"] == 10
    assert snap["graft_limits_tripped_total"]["samples"][0]["labels"] == {
        "limit": "max_rows"
    }


def test_search_records_process_metrics():
    eng = SearchEngine()
    eng.add_many(["alpha beta", "beta gamma", "alpha"])
    before = _query_count("sumbest", "ok")
    eng.search("alpha beta")
    assert _query_count("sumbest", "ok") == before + 1


def _query_count(scheme: str, status: str) -> float:
    try:
        fam = REGISTRY.get("graft_queries_total")
    except GraftError:
        return 0.0
    for key, child in fam.samples():
        if dict(zip(fam.labelnames, key)) == {"scheme": scheme, "status": status}:
            return child.value
    return 0.0


def test_store_operations_record_metrics(tmp_path):
    base_appends = _counter_value("graft_wal_appends_total")
    base_ckpts = _counter_value("graft_store_checkpoints_total")
    with SearchEngine.open(tmp_path / "store") as eng:
        eng.add("alpha beta gamma")
        eng.checkpoint()
    assert _counter_value("graft_wal_appends_total") == base_appends + 1
    assert _counter_value("graft_store_checkpoints_total") >= base_ckpts + 1


def _counter_value(name: str) -> float:
    try:
        fam = REGISTRY.get(name)
    except GraftError:
        return 0.0
    return sum(child.value for _, child in fam.samples())


# -- merging per-process snapshots -------------------------------------------

OBSERVATIONS = st.lists(
    st.tuples(
        st.integers(0, 3),                          # which registry
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["/search", "/status"]),    # label value
        st.integers(-400, 4000),                    # value * 8
    ),
    max_size=60,
)


def _feed(registry, kind, label, raw):
    # Multiples of 1/8 add exactly in any order, so "equal" is ==.
    value = raw / 8
    if kind == "counter":
        registry.counter("t_total", "c", ("route",)).labels(
            route=label).inc(abs(value))
    elif kind == "gauge":
        registry.gauge("t_inflight", "g", ("route",)).labels(
            route=label).inc(value)
    else:
        registry.histogram(
            "t_seconds", "h", ("route",), buckets=(0.0, 1.0, 100.0)
        ).labels(route=label).observe(value)


@settings(max_examples=150, deadline=None)
@given(OBSERVATIONS, st.integers(1, 4))
def test_merged_snapshots_equal_one_registry_fed_every_observation(
    observations, k
):
    parts = [MetricsRegistry() for _ in range(k)]
    whole = MetricsRegistry()
    for index, kind, label, raw in observations:
        _feed(parts[index % k], kind, label, raw)
        _feed(whole, kind, label, raw)
    merged = merge_snapshots([part.snapshot() for part in parts])
    assert merged == whole.snapshot()
    # Counters, gauges, and histogram buckets, _sum, _count and +Inf.
    assert prometheus_text(merged) == whole.to_prometheus_text()


def test_merging_refuses_one_name_with_two_kinds(registry):
    other = MetricsRegistry()
    registry.counter("t_total").child().inc()
    other.gauge("t_total").child().set(1)
    with pytest.raises(GraftError, match="counter in one snapshot"):
        merge_snapshots([registry.snapshot(), other.snapshot()])
