"""A dependency-free process-wide metrics registry.

A serving engine needs counters and latency histograms that outlive any
single query: how many queries ran (and how many degraded), how long
checkpoints take, how often the WAL fsyncs, whether corruption has ever
been detected.  This module supplies the registry those families live in
— plain Python, no client library — with two export formats:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict (the CLI's
  ``repro metrics --format json`` and the ``--json`` outputs embed it);
* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (version 0.0.4), scrape-ready.

A server running several processes serves one registry per process;
:func:`merge_snapshots` adds their snapshots into the one a single
registry fed every observation would give, and :func:`prometheus_text`
renders it.

Metric model
------------
A *family* has a name, a kind (``counter``/``gauge``/``histogram``), a
help string, and a tuple of label names.  Each distinct label-value
combination materializes one *child* (:class:`Counter`, :class:`Gauge`
or :class:`Histogram`) on first use::

    REGISTRY.counter("graft_queries_total", "Queries executed",
                     labelnames=("scheme", "status"))
    REGISTRY.get("graft_queries_total").labels(
        scheme="sumbest", status="ok").inc()

Families are idempotent: re-declaring one with the same kind and labels
returns the existing family, so every instrumentation site can declare
what it needs without import-order coupling.  Instrumented hot paths pay
one dict lookup and one float add per event.

``REGISTRY`` is the process-wide default.  Tests that need isolation
construct their own :class:`MetricsRegistry` or call
:meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import copy
import json
import re
import time
from typing import Iterator

from repro.errors import GraftError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): spans sub-millisecond operator
#: timings up to multi-second checkpoint/compaction durations.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise GraftError(f"counters only go up; inc({amount}) rejected")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``counts[i]`` tallies observations ``<= buckets[i]``; the implicit
    ``+Inf`` bucket is ``count``.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed wall time in seconds."""
        return _HistogramTimer(self)


class _HistogramTimer:
    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram):
        self._hist = hist

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._hist.observe(time.perf_counter() - self._start)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named family: fixed labels, lazily materialized children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise GraftError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise GraftError(f"invalid label name {label!r} on {name}")
        if kind not in _KINDS:
            raise GraftError(
                f"unknown metric kind {kind!r}; known: {sorted(_KINDS)}"
            )
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues: str):
        """The child for one label-value combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise GraftError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self._buckets)
            else:
                child = _KINDS[self.kind]()
            # setdefault, not assignment: two threads creating the same
            # child concurrently must converge on one object, or the
            # loser's increments would silently vanish (searches run on
            # a thread pool; this race was real under load).
            child = self._children.setdefault(key, child)
        return child

    def child(self):
        """The unlabeled child (families declared with no labels)."""
        return self.labels()

    def samples(self) -> Iterator[tuple[tuple[str, ...], object]]:
        yield from sorted(self._children.items())


class MetricsRegistry:
    """A named collection of metric families."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    # -- declaration -------------------------------------------------------

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise GraftError(
                    f"metric {name} already registered as {family.kind} "
                    f"with labels {family.labelnames}; cannot re-register "
                    f"as {kind} with labels {tuple(labelnames)}"
                )
            return family
        family = MetricFamily(name, kind, help, tuple(labelnames), buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._declare(name, "histogram", help, labelnames, buckets)

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError:
            raise GraftError(f"no metric family named {name!r}") from None

    def families(self) -> list[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        self._families.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready dump of every family and child."""
        out: dict = {}
        for family in self.families():
            samples = []
            for key, child in family.samples():
                labels = dict(zip(family.labelnames, key))
                if isinstance(child, Histogram):
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            str(bound): n
                            for bound, n in zip(child.buckets, child.counts)
                        },
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        return prometheus_text(self.snapshot())


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` (or a merge of several)
    in the Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family["help"]:
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["kind"] == "histogram":
                for bound, n in sample["buckets"].items():
                    le = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_labelset(dict(labels, le=le))} {n}"
                    )
                lines.append(
                    f"{name}_bucket{_labelset(dict(labels, le='+Inf'))} "
                    f"{sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_labelset(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_labelset(labels)} {sample['count']}"
                )
            else:
                value = _format_value(sample["value"])
                lines.append(f"{name}{_labelset(labels)} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(snapshots: list[dict]) -> dict:
    """One snapshot equal to a registry fed every observation of the
    registries that produced ``snapshots`` (one per server process).

    Counters, gauges, histogram buckets, ``_sum`` and ``_count`` add per
    label set; a family declared differently in two snapshots is an
    error, not a guess.
    """
    merged: dict = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            into = merged.setdefault(name, {
                "kind": family["kind"], "help": family["help"], "samples": {},
            })
            if into["kind"] != family["kind"]:
                raise GraftError(
                    f"metric {name} is a {into['kind']} in one snapshot and "
                    f"a {family['kind']} in another"
                )
            for sample in family["samples"]:
                key = tuple(sample["labels"].values())
                have = into["samples"].get(key)
                if have is None:
                    into["samples"][key] = copy.deepcopy(sample)
                elif "value" in sample:
                    have["value"] += sample["value"]
                else:
                    if have["buckets"].keys() != sample["buckets"].keys():
                        raise GraftError(
                            f"histogram {name} has different buckets in two "
                            f"snapshots"
                        )
                    have["count"] += sample["count"]
                    have["sum"] += sample["sum"]
                    for bound, n in sample["buckets"].items():
                        have["buckets"][bound] += n
    for family in merged.values():
        family["samples"] = [
            family["samples"][key] for key in sorted(family["samples"])
        ]
    return merged


def _labelset(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: The process-wide default registry: engine, store, and CLI
#: instrumentation all record here unless handed another registry.
REGISTRY = MetricsRegistry()


# -- standard families ------------------------------------------------------
#
# Declared lazily by the helpers below so importing this module stays
# side-effect free; every instrumentation site goes through one of them.


def query_counters(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_queries_total",
        "Queries executed, by scoring scheme and outcome status",
        labelnames=("scheme", "status"),
    )


def query_seconds(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.histogram(
        "graft_query_seconds", "End-to-end query latency (seconds)"
    )


def record_execution_metrics(metrics, registry: MetricsRegistry = REGISTRY) -> None:
    """Fold one query's :class:`repro.exec.iterator.ExecutionMetrics`
    into the registry's cumulative work counters.

    Benchmarks call this too, so ``BENCH_*.json`` trajectories come from
    the same counter families the engine serves.
    """
    registry.counter(
        "graft_positions_scanned_total",
        "Term positions scanned by leaf operators",
    ).child().inc(metrics.positions_scanned)
    registry.counter(
        "graft_doc_entries_scanned_total",
        "Term-document entries scanned by pre-count leaves",
    ).child().inc(metrics.doc_entries_scanned)
    registry.counter(
        "graft_rows_joined_total", "Join combinations emitted"
    ).child().inc(metrics.rows_joined)
    registry.counter(
        "graft_rows_grouped_total", "Rows folded by grouping operators"
    ).child().inc(metrics.rows_grouped)
    registry.counter(
        "graft_rows_charged_total",
        "Rows charged against query resource budgets",
    ).child().inc(metrics.rows_charged)
    if metrics.limit_tripped is not None:
        registry.counter(
            "graft_limits_tripped_total",
            "Resource-limit trips, by limit name",
            labelnames=("limit",),
        ).labels(limit=metrics.limit_tripped).inc()


# -- audit families ---------------------------------------------------------
#
# The shadow-execution auditor (repro.obs.audit) records every audit
# verdict here, so a dashboard can alert on the first divergence ever
# seen in production.

def audit_counters(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_audits_total",
        "Shadow-execution score-consistency audits, by scheme and verdict",
        labelnames=("scheme", "result"),
    )


def audit_divergences(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_audit_divergences_total",
        "Score-consistency divergences attributed to a rewrite rule",
        labelnames=("rule",),
    )


# -- parallel-execution families --------------------------------------------
#
# The sharded driver (repro.exec.parallel) and the engine's two-tier
# query cache (repro.exec.cache) record here.

def shards_executed(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_shards_executed_total",
        "Index shards executed by the parallel driver",
    )


def shards_pruned(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_shards_pruned_total",
        "Index shards skipped by required-keyword partition pruning",
    )


def shard_seconds(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.histogram(
        "graft_shard_seconds", "Per-shard plan execution wall time (seconds)"
    )


def proc_queries(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_proc_queries_total",
        "Queries executed on the process-parallel shard pool",
    )


def proc_fallbacks(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_proc_fallbacks_total",
        "Process-pool queries that ran their shards in-process instead",
        labelnames=("reason",),
    )


def plan_cache_hits(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_plan_cache_hits_total",
        "Searches that skipped parse+optimize via the plan cache",
    )


def plan_cache_misses(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_plan_cache_misses_total",
        "Cacheable searches that had to parse and optimize",
    )


def result_cache_hits(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_result_cache_hits_total",
        "Searches answered entirely from the result cache",
    )


def result_cache_misses(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_result_cache_misses_total",
        "Result-cacheable searches that had to execute",
    )


# -- service families -------------------------------------------------------
#
# The async query service (repro.serve) records its request lifecycle
# here: admission, shedding, per-route latency, generation swaps, and
# circuit-breaker transitions.  /metrics serves this registry.

#: Request-latency buckets (seconds): a serving deadline is typically
#: tens to hundreds of milliseconds, so the resolution concentrates there.
SERVICE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0,
)


def http_requests(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_http_requests_total",
        "HTTP requests served, by route and status code",
        labelnames=("route", "status"),
    )


def http_request_seconds(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.histogram(
        "graft_http_request_seconds",
        "End-to-end HTTP request latency by route (seconds), including "
        "admission-queue wait",
        labelnames=("route",),
        buckets=SERVICE_LATENCY_BUCKETS,
    )


def inflight_requests(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_service_inflight_requests",
        "Admitted requests currently executing",
    )


def queued_requests(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_service_queued_requests",
        "Admitted-but-waiting requests (admission queue depth)",
    )


def requests_shed(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_requests_shed_total",
        "Requests rejected by load shedding (503 + Retry-After)",
    )


def admission_timeouts(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_admission_timeouts_total",
        "Requests whose deadline expired waiting in the admission queue",
    )


def generation_swaps(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_generation_swaps_total",
        "Reader hot-swaps to a newly checkpointed store generation",
    )


def swap_seconds(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.histogram(
        "graft_generation_swap_seconds",
        "Wall time to load, pin and swap in a new reader generation "
        "(seconds); readers keep serving the old one throughout",
    )


def breaker_transitions(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_breaker_transitions_total",
        "Circuit-breaker state transitions, by state entered",
        labelnames=("state",),
    )


def degraded_serial_requests(
    registry: MetricsRegistry = REGISTRY,
) -> MetricFamily:
    return registry.counter(
        "graft_degraded_serial_requests_total",
        "Searches served on the fail-fast degraded serial path while the "
        "circuit breaker was open",
    )


# -- SLO families -----------------------------------------------------------
#
# The SLO engine (repro.obs.slo) exports its verdicts here so external
# alerting can fire on the same burn rates /debug/slo reports.

def slo_burn_rate(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_slo_burn_rate",
        "Error-budget burn rate over each alerting window's long arm "
        "(1.0 spends the budget exactly over the window)",
        labelnames=("objective", "window"),
    )


def slo_breaching(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_slo_breaching",
        "1 while the objective's multi-window burn-rate alert is firing",
        labelnames=("objective",),
    )


def slo_budget_remaining(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_slo_budget_remaining",
        "Fraction of the error budget left over the longest window",
        labelnames=("objective",),
    )


def slo_breaches(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_slo_breaches_total",
        "ok -> breaching transitions per objective",
        labelnames=("objective",),
    )


def slo_shed_armed(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.gauge(
        "graft_slo_shed_armed",
        "1 while fast-burn breaching has armed early admission shedding",
    )


# -- span-export families ----------------------------------------------------

def spans_exported(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_spans_exported_total",
        "Spans written by the unified span exporter",
    )


def traces_exported(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_traces_exported_total",
        "Request span trees exported (one per finished request)",
    )


# -- store-level families --------------------------------------------------
#
# The durable store (repro.index.store) records its I/O through these
# families; declared here so the metric names live in one place.

def store_fsyncs(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_store_fsyncs_total",
        "fsync calls issued by the durable store, by target kind",
        labelnames=("kind",),
    )


def wal_appends(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_wal_appends_total",
        "Records durably appended to the write-ahead log",
    )


def wal_replayed(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_wal_replayed_records_total",
        "WAL records replayed into a collection at load/open time",
    )


def store_checkpoints(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_store_checkpoints_total",
        "Store generations checkpointed",
    )


def checkpoint_seconds(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.histogram(
        "graft_store_checkpoint_seconds",
        "Wall time of atomic checkpoint installation (seconds)",
    )


def corruption_detected(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    return registry.counter(
        "graft_store_corruption_detected_total",
        "Checksum or structural corruption detections during store reads",
    )
