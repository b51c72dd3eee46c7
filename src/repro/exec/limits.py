"""Resource governance for query execution.

Match-table evaluation has an O(W^Q) worst case (Section 6): a handful of
frequent keywords in one query can force the engine to enumerate an
astronomically large cross product.  A serving stack cannot run such
queries to completion, so every physical plan executes under a
:class:`QueryGuard` — a cooperative governor checked inside the
``next_doc`` loops of the physical operators.

Three limits are supported (all optional, see :class:`QueryLimits`):

* ``deadline_ms`` — wall-clock deadline for the whole execution;
* ``max_rows`` — budget on rows materialized/produced by operators
  (leaf positions scanned, join combinations emitted, rows grouped);
* ``max_matches_per_doc`` — cap on match rows produced within a single
  document, the unit that explodes under the O(W^Q) worst case.

On exhaustion the guard raises :class:`repro.errors.QueryTimeoutError`
(deadline) or :class:`repro.errors.ResourceExhaustedError` (budgets).
With ``on_limit="partial"`` the engine catches the trip at the execution
boundary and returns the correctly-ranked prefix of results produced so
far, flagged as degraded (see :meth:`repro.api.SearchEngine.search`).

Accounting is deliberately slightly eager — a leaf scan charges a
document's positions when the document group is opened, even if a skip
signal later abandons some rows — because governance needs an upper
bound on work, not the exact lazy billing the metrics report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import GraftError, QueryTimeoutError, ResourceExhaustedError

_ON_LIMIT_MODES = ("error", "partial")


@dataclass(frozen=True)
class QueryLimits:
    """Per-query resource limits (all optional; ``None`` = unlimited).

    Attributes:
        deadline_ms: Wall-clock deadline in milliseconds, measured from
            the start of plan execution.
        max_rows: Budget on rows charged by physical operators across the
            whole query.
        max_matches_per_doc: Cap on match rows produced within a single
            document (the O(W^Q) blow-up unit).
        on_limit: ``"error"`` raises the trip out of the public API;
            ``"partial"`` makes the engine return the correctly-ranked
            prefix computed so far, flagged as degraded.
    """

    deadline_ms: float | None = None
    max_rows: int | None = None
    max_matches_per_doc: int | None = None
    on_limit: str = "error"

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise GraftError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_rows is not None and self.max_rows < 1:
            raise GraftError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_matches_per_doc is not None and self.max_matches_per_doc < 1:
            raise GraftError(
                f"max_matches_per_doc must be >= 1, got {self.max_matches_per_doc}"
            )
        if self.on_limit not in _ON_LIMIT_MODES:
            raise GraftError(
                f"on_limit must be one of {_ON_LIMIT_MODES}, got {self.on_limit!r}"
            )

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_ms is None
            and self.max_rows is None
            and self.max_matches_per_doc is None
        )


class QueryGuard:
    """Cooperative resource governor threaded through a physical plan.

    One guard instance governs one query execution; it lives on the
    :class:`repro.exec.iterator.Runtime` so every operator can reach it.
    Operators call :meth:`charge_rows` when they materialize or emit
    rows, :meth:`charge_doc_rows` when they emit match rows for a
    document, and :meth:`tick` at per-document loop boundaries.

    The wall clock is only consulted every ``DEADLINE_CHECK_INTERVAL``
    charged rows (plus at every per-document tick), keeping the guard's
    overhead on unrestricted queries to a branch per charge site.
    """

    DEADLINE_CHECK_INTERVAL = 256

    __slots__ = (
        "limits",
        "active",
        "rows_charged",
        "tripped",
        "deadline_checks",
        "_clock",
        "_deadline",
        "_deadline_at",
        "_max_rows",
        "_doc_cap",
        "_ticks",
        "_doc",
        "_doc_rows",
    )

    def __init__(
        self,
        limits: QueryLimits | None = None,
        clock: Callable[[], float] = time.monotonic,
        *,
        deadline_at: float | None = None,
    ):
        self.limits = limits if limits is not None else QueryLimits()
        self.active = not self.limits.unlimited
        self.rows_charged = 0
        #: Name of the limit that tripped (``None`` while within budget).
        self.tripped: str | None = None
        #: Wall-clock consultations (profiling: how often the governor
        #: actually looked at the clock; see ``search --profile``).
        self.deadline_checks = 0
        self._clock = clock
        self._max_rows = self.limits.max_rows
        self._doc_cap = self.limits.max_matches_per_doc
        self._ticks = 0
        self._doc: int | None = None
        self._doc_rows = 0
        #: An absolute deadline (one instant shared by every shard of a
        #: query) is installed once; ``start()`` leaves it alone.
        self._deadline_at = deadline_at
        self._deadline: float | None = None
        self.start()

    @property
    def on_limit(self) -> str:
        return self.limits.on_limit

    def start(self) -> None:
        """(Re-)arm the deadline relative to now, unless it is absolute.

        Called by the engine when plan execution begins, so time spent
        parsing and optimizing does not count against the deadline.
        """
        if self._deadline_at is not None:
            self._deadline = self._deadline_at
        elif self.limits.deadline_ms is not None:
            self._deadline = self._clock() + self.limits.deadline_ms / 1000.0

    # -- charge sites ------------------------------------------------------

    def charge_rows(self, n: int = 1) -> None:
        """Charge ``n`` materialized/produced rows against the budget."""
        self.rows_charged += n
        if self._max_rows is not None and self.rows_charged > self._max_rows:
            self._trip(
                "max_rows",
                ResourceExhaustedError(
                    f"row budget of {self._max_rows} exhausted "
                    f"({self.rows_charged} rows charged)",
                    limit="max_rows",
                ),
            )
        if self._deadline is not None:
            self._ticks += n
            if self._ticks >= self.DEADLINE_CHECK_INTERVAL:
                self._ticks = 0
                self.check_deadline()

    def charge_doc_rows(self, doc: int, n: int = 1) -> None:
        """Charge ``n`` match rows against the per-document cap."""
        if self._doc_cap is None:
            return
        if doc != self._doc:
            self._doc = doc
            self._doc_rows = 0
        self._doc_rows += n
        if self._doc_rows > self._doc_cap:
            self._trip(
                "max_matches_per_doc",
                ResourceExhaustedError(
                    f"document {doc} exceeded the cap of {self._doc_cap} "
                    "matches per document",
                    limit="max_matches_per_doc",
                ),
            )

    def tick(self, n: int = 1) -> None:
        """Cheap per-document heartbeat: deadline check every N ticks."""
        if self._deadline is None:
            return
        self._ticks += n
        if self._ticks >= self.DEADLINE_CHECK_INTERVAL:
            self._ticks = 0
            self.check_deadline()

    def check_deadline(self) -> None:
        """Consult the wall clock; trips when past the deadline."""
        if self._deadline is None:
            return
        self.deadline_checks += 1
        if self._clock() > self._deadline:
            self._trip(
                "deadline_ms",
                QueryTimeoutError(
                    f"query exceeded its deadline of "
                    f"{self.limits.deadline_ms:g} ms",
                    limit="deadline_ms",
                ),
            )

    def _trip(self, limit: str, exc: ResourceExhaustedError):
        self.tripped = limit
        raise exc
