"""Shadow-execution score-consistency auditing.

The paper's central claim (Definition 1) is that every GRAFT rewrite is
*score-consistent*: the optimized plan returns the same matches and the
same scores as the canonical score-isolated plan.  The test suite proves
that offline; this module proves it *at runtime*.  On a configurable
sample of queries the engine re-executes the unoptimized canonical plan
(and, for small collections, the brute-force MCalc oracle) and diffs the
two rankings within a declared tolerance.  Any divergence becomes a
structured :class:`AuditEvent` naming the query, the rewrite rules that
fired (from the optimizer's :class:`repro.obs.rewrite.RewriteEvent`
log), and the first differing document — surfaced on
``SearchOutcome.audit``, counted in the metrics registry, and raisable
via ``audit_mode="strict"``.

The audit costs one extra canonical execution per sampled query, so it
is off by default (``audit_rate=0``) and the off path is guarded: an
engine without an audit config never constructs an auditor, and the per
-query cost is a single ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import GraftError, ScoreConsistencyError

if TYPE_CHECKING:
    from repro.corpus.collection import DocumentCollection
    from repro.index.packed import PackedIndex
    from repro.mcalc.ast import Query
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.rewrite import RewriteEvent
    from repro.sa.context import ScoringContext
    from repro.sa.scheme import ScoringScheme

#: Divergence kinds, in the order they are checked.
MISSING_DOC = "missing_doc"      # canonical found it, optimized did not
EXTRA_DOC = "extra_doc"          # optimized found it, canonical did not
SCORE_MISMATCH = "score_mismatch"


@dataclass(frozen=True)
class AuditConfig:
    """Auditing knobs (engine-level; see ``docs/OBSERVABILITY.md``).

    Attributes:
        rate: Fraction of queries to shadow-execute, in [0, 1].  The
            sampler is deterministic (an error accumulator), so
            ``rate=0.5`` audits exactly every other query — no RNG, no
            flaky CI.  0 disables auditing entirely.
        mode: ``"log"`` records divergences on the outcome and in the
            metrics registry; ``"strict"`` additionally raises
            :class:`repro.errors.ScoreConsistencyError`.
        tolerance: Per-document relative/absolute score tolerance.
        oracle_max_docs: Also diff against the brute-force MCalc oracle
            when the collection holds at most this many documents (the
            oracle is exponential; 0 disables the oracle leg).
    """

    rate: float = 1.0
    mode: str = "log"
    tolerance: float = 1e-7
    oracle_max_docs: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise GraftError(
                f"audit rate must be within [0, 1], got {self.rate!r}"
            )
        if self.mode not in ("log", "strict"):
            raise GraftError(
                f"audit mode must be 'log' or 'strict', got {self.mode!r}"
            )
        if self.tolerance < 0:
            raise GraftError(
                f"audit tolerance must be >= 0, got {self.tolerance!r}"
            )


@dataclass(frozen=True)
class AuditEvent:
    """The outcome of auditing one query (pass or divergence).

    Attributes:
        query: The audited query, as shorthand text.
        scheme: Scoring scheme name.
        ok: True when every reference agreed within tolerance.
        reference: What the optimized results were diffed against —
            ``"canonical"`` or ``"canonical+oracle"``.
        checked: Number of reference documents compared.
        rules: Rewrite rules that fired for this plan (provenance).
        suspect_rules: Fired rules the Table-1 validity matrix rejects
            for this scheme — the prime suspects for a divergence (a
            correct optimizer never fires one; a broken rule that drops
            its gate shows up here by name).
        divergence: ``"missing_doc"``, ``"extra_doc"`` or
            ``"score_mismatch"``; None when ``ok``.
        doc_id: The first differing document (lowest id), or None.
        expected: Reference score for ``doc_id`` (None when the document
            is extra).
        got: Optimized score for ``doc_id`` (None when missing).
        tolerance: The tolerance the diff used.
    """

    query: str
    scheme: str
    ok: bool
    reference: str
    checked: int
    rules: tuple[str, ...] = ()
    suspect_rules: tuple[str, ...] = ()
    divergence: str | None = None
    doc_id: int | None = None
    expected: float | None = None
    got: float | None = None
    tolerance: float = 1e-7

    def to_dict(self) -> dict:
        """JSON-ready form (the ``audit`` field of the ``--json`` contract)."""
        return {
            "query": self.query,
            "scheme": self.scheme,
            "ok": self.ok,
            "reference": self.reference,
            "checked": self.checked,
            "rules": list(self.rules),
            "suspect_rules": list(self.suspect_rules),
            "divergence": self.divergence,
            "doc_id": self.doc_id,
            "expected": self.expected,
            "got": self.got,
            "tolerance": self.tolerance,
        }

    def describe(self) -> str:
        """One-line human rendering (CLI and strict-mode errors)."""
        if self.ok:
            return (
                f"audit ok: {self.checked} documents agree with "
                f"{self.reference} (scheme {self.scheme})"
            )
        blame = (
            f"; suspect rules: {', '.join(self.suspect_rules)}"
            if self.suspect_rules else
            f"; fired rules: {', '.join(self.rules) or 'none'}"
        )
        return (
            f"score-consistency violation on {self.query!r} "
            f"(scheme {self.scheme}, vs {self.reference}): "
            f"{self.divergence} at doc {self.doc_id} "
            f"(expected {self.expected!r}, got {self.got!r}, "
            f"tolerance {self.tolerance}){blame}"
        )


def _scores_close(got: float, want: float, tolerance: float) -> bool:
    """Relative-or-absolute closeness, mirroring the test suite's
    ``assert_same_ranking`` semantics."""
    return abs(got - want) <= max(tolerance, tolerance * abs(want))


def diff_rankings(
    got: Sequence[tuple[int, float]],
    want: Sequence[tuple[int, float]],
    tolerance: float,
) -> tuple[str, int, float | None, float | None] | None:
    """Diff two (doc_id, score) rankings as document -> score maps.

    Returns ``(kind, doc_id, expected, got)`` for the first divergence
    (lowest document id, missing before extra before mismatch), or None
    when the rankings agree within ``tolerance``.  Rank order itself is
    not compared: both executors sort by (-score, doc id), so equal
    score maps imply equal rankings up to exact ties.
    """
    got_map = dict(got)
    want_map = dict(want)
    missing = sorted(set(want_map) - set(got_map))
    if missing:
        doc = missing[0]
        return (MISSING_DOC, doc, want_map[doc], None)
    extra = sorted(set(got_map) - set(want_map))
    if extra:
        doc = extra[0]
        return (EXTRA_DOC, doc, None, got_map[doc])
    for doc in sorted(want_map):
        if not _scores_close(got_map[doc], want_map[doc], tolerance):
            return (SCORE_MISMATCH, doc, want_map[doc], got_map[doc])
    return None


def _suspect_rules(
    scheme: "ScoringScheme", fired: Sequence[str]
) -> tuple[str, ...]:
    """Fired rules the real Table-1 matrix forbids for this scheme."""
    from repro.graft.validity import optimization_allowed

    return tuple(
        name for name in fired
        if not optimization_allowed(name, scheme.properties)
    )


def shadow_audit(
    index: "PackedIndex",
    scheme: "ScoringScheme",
    query: "Query",
    got: Sequence[tuple[int, float]],
    *,
    ctx: "ScoringContext | None" = None,
    top_k: int | None = None,
    tolerance: float = 1e-7,
    rewrite_log: Sequence["RewriteEvent"] = (),
    query_text: str = "",
    collection: "DocumentCollection | None" = None,
    oracle_max_docs: int = 0,
    registry: "MetricsRegistry | None" = None,
) -> AuditEvent:
    """Audit one query's optimized results against the canonical plan.

    Re-executes the unoptimized canonical score-isolated plan (same
    index, scheme, scoring context and ``top_k``) and diffs the two
    rankings; when ``collection`` is small enough the brute-force MCalc
    oracle is diffed too, closing the loop back to Definition 2.  The
    audit verdict is folded into ``registry`` (the process-wide default
    when None) and returned as an :class:`AuditEvent`.
    """
    from repro.exec.engine import execute, make_runtime
    from repro.graft.optimizer import Optimizer
    from repro.mcalc.unparse import unparse

    if not query_text:
        query_text = unparse(query)
    fired = tuple(e.rule for e in rewrite_log if e.applied)
    canonical = Optimizer(scheme, index).canonical(query)
    runtime = make_runtime(index, scheme, canonical.info, ctx)
    want = execute(canonical.plan, runtime, top_k=top_k)

    reference = "canonical"
    checked = len(want)
    divergence = diff_rankings(got, want, tolerance)

    if (
        divergence is None
        and collection is not None
        and 0 < len(collection) <= oracle_max_docs
    ):
        from repro.sa.reference import rank_with_oracle

        oracle = rank_with_oracle(scheme, runtime.ctx, query, collection)
        if top_k is not None:
            oracle = oracle[:top_k]
        reference = "canonical+oracle"
        checked = max(checked, len(oracle))
        divergence = diff_rankings(got, oracle, tolerance)

    if divergence is None:
        event = AuditEvent(
            query=query_text,
            scheme=scheme.name,
            ok=True,
            reference=reference,
            checked=checked,
            rules=fired,
            tolerance=tolerance,
        )
    else:
        kind, doc, expected, got_score = divergence
        event = AuditEvent(
            query=query_text,
            scheme=scheme.name,
            ok=False,
            reference=reference,
            checked=checked,
            rules=fired,
            suspect_rules=_suspect_rules(scheme, fired),
            divergence=kind,
            doc_id=doc,
            expected=expected,
            got=got_score,
            tolerance=tolerance,
        )
    _count_audit(event, registry)
    return event


def _count_audit(event: AuditEvent, registry: "MetricsRegistry | None") -> None:
    from repro.obs.metrics import REGISTRY, audit_counters, audit_divergences

    reg = registry if registry is not None else REGISTRY
    result = "ok" if event.ok else "divergence"
    audit_counters(reg).labels(scheme=event.scheme, result=result).inc()
    if not event.ok:
        blamed = event.suspect_rules or event.rules or ("unattributed",)
        for rule in blamed:
            audit_divergences(reg).labels(rule=rule).inc()


class Auditor:
    """Per-engine audit state: the config plus the deterministic sampler.

    The sampler is an error accumulator: each query adds ``rate``; when
    the accumulator reaches 1 the query is audited and the accumulator
    keeps only the remainder.  ``rate=1.0`` audits every query,
    ``rate=0.25`` every fourth, with no randomness.
    """

    __slots__ = ("config", "_acc")

    def __init__(self, config: AuditConfig):
        self.config = config
        self._acc = 0.0

    def should_audit(self) -> bool:
        self._acc += self.config.rate
        if self._acc >= 1.0 - 1e-12:
            self._acc -= 1.0
            return True
        return False

    def raise_if_strict(self, event: AuditEvent) -> None:
        if self.config.mode == "strict" and not event.ok:
            raise ScoreConsistencyError(event.describe(), event=event)
