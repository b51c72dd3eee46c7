"""Physical operator protocol, row schemas, cursors, and run-time state.

Row encoding
------------
A row is a flat tuple ``(cell_0, ..., cell_n, count, score_0, ..., score_m)``:

* cells are term positions (``int``), the empty symbol (``None``), or
  :data:`repro.ma.match_table.ANY_POSITION`;
* ``count`` is the row's multiplicity (eager counting / pre-counting);
* scores are the scheme's internal score values.

:class:`RowSchema` maps variable names to indices.  The document id is not
part of the row — it is the group key of the doc-group stream.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import ExecutionError, GraftError
from repro.exec.limits import QueryGuard
from repro.graft.canonical import QueryInfo
from repro.index.packed import PackedIndex
from repro.sa.context import ScoringContext
from repro.sa.scheme import ScoringScheme

if TYPE_CHECKING:
    from repro.exec.faults import FaultInjector
    from repro.obs.trace import Tracer

#: A doc group: (doc_id, iterator of rows).
DocGroup = tuple[int, Iterator[tuple]]

#: :meth:`PhysicalOp.doc_floor` of an exhausted stream.
END = sys.maxsize


@dataclass(frozen=True)
class RowSchema:
    """Column layout of one operator's rows."""

    positions: tuple[str, ...]
    scores: tuple[str, ...] = ()

    @property
    def count_index(self) -> int:
        return len(self.positions)

    def position_index(self, var: str) -> int:
        try:
            return self.positions.index(var)
        except ValueError:
            raise ExecutionError(
                f"no position column {var!r}; have {self.positions}"
            ) from None

    def score_index(self, var: str) -> int:
        try:
            return len(self.positions) + 1 + self.scores.index(var)
        except ValueError:
            raise ExecutionError(
                f"no score column {var!r}; have {self.scores}"
            ) from None

    @property
    def width(self) -> int:
        return len(self.positions) + 1 + len(self.scores)


@dataclass
class ExecutionMetrics:
    """Work counters used by tests and benchmarks to verify *how much*
    index data a plan touched (e.g. the paper's Amdahl analysis of Q8)."""

    positions_scanned: int = 0
    doc_entries_scanned: int = 0
    positions_by_keyword: dict[str, int] = field(default_factory=dict)
    rows_grouped: int = 0
    rows_joined: int = 0
    #: Rows charged against the query's resource budget (0 when the query
    #: ran without limits; see :mod:`repro.exec.limits`).
    rows_charged: int = 0
    #: Name of the resource limit that tripped, or None.
    limit_tripped: str | None = None

    def count_positions(self, keyword: str, n: int = 1) -> None:
        self.positions_scanned += n
        self.positions_by_keyword[keyword] = (
            self.positions_by_keyword.get(keyword, 0) + n
        )

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI's ``--json`` outputs embed it)."""
        return {
            "positions_scanned": self.positions_scanned,
            "doc_entries_scanned": self.doc_entries_scanned,
            "positions_by_keyword": dict(self.positions_by_keyword),
            "rows_grouped": self.rows_grouped,
            "rows_joined": self.rows_joined,
            "rows_charged": self.rows_charged,
            "limit_tripped": self.limit_tripped,
        }


@dataclass
class Runtime:
    """Shared execution state: the index, the scoring context, the scheme,
    the query info, work counters, the resource guard, and (optionally)
    a fault injector for robustness testing and an execution tracer for
    per-operator profiling (:mod:`repro.obs.trace`)."""

    index: PackedIndex
    ctx: ScoringContext
    scheme: ScoringScheme
    info: QueryInfo
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    guard: QueryGuard = field(default_factory=QueryGuard)
    faults: "FaultInjector | None" = None
    tracer: "Tracer | None" = None


class PhysicalOp:
    """Base physical operator (doc-group iterator).

    Contract: :meth:`next_doc` returns groups with strictly ascending doc
    ids, then ``None`` forever.  The rows iterator of a group is
    invalidated by the next ``next_doc``/``seek_doc`` call.  A group's
    rows iterator may be empty (e.g. all rows filtered); consumers must
    tolerate empty groups.  :meth:`seek_doc` discards any unconsumed
    current group and moves so the next group has doc >= the target.
    """

    schema: RowSchema

    def open(self) -> None:
        """Prepare for iteration (children are constructed open)."""

    def next_doc(self) -> DocGroup | None:
        raise NotImplementedError

    def seek_doc(self, doc_id: int) -> None:
        raise NotImplementedError

    def doc_floor(self) -> int | None:
        """A doc id the group after the one last handed out is known to
        be at or past, found without reading it (:data:`END` at the end of
        the stream; None: unknown).  Lets a cursor decide whether moving
        past a handed-out group needs a seek (see :meth:`DocCursor.skip`)."""
        return None

    def close(self) -> None:
        """Release resources (default: propagate to nothing)."""


def op_label(op: PhysicalOp) -> str:
    """Display name of a physical operator (fault wrappers masquerade as
    the operator they wrap via an ``op_name`` attribute)."""
    return getattr(op, "op_name", type(op).__name__)


def _innermost_op(exc: BaseException) -> str | None:
    """Name of the deepest physical operator on the exception's traceback
    (the operator closest to the fault), or None if no operator frame is
    present."""
    label = None
    tb = exc.__traceback__
    while tb is not None:
        self_obj = tb.tb_frame.f_locals.get("self")
        if isinstance(self_obj, PhysicalOp):
            label = op_label(self_obj)
        tb = tb.tb_next
    return label


def _boundary_error(stage: str, exc: Exception) -> ExecutionError:
    return ExecutionError(
        f"{type(exc).__name__} during {stage}: {exc}",
        operator=_innermost_op(exc),
    )


def pull_doc(op: PhysicalOp) -> DocGroup | None:
    """Pull the next doc group through the engine's error boundary.

    This is the *root* boundary: interior operators call each other
    directly (via :class:`DocCursor`) with no per-pull wrapping cost, and
    a raw failure anywhere in the tree propagates here, where the
    traceback is walked to attribute it to the operator closest to the
    fault.  Library errors (:class:`repro.errors.GraftError`, including
    resource trips) propagate untouched; anything else — a bug, a
    corrupted index, an injected fault — is wrapped in
    :class:`ExecutionError`, so callers never see a raw foreign
    traceback.
    """
    try:
        return op.next_doc()
    except GraftError:
        raise
    except Exception as exc:
        raise _boundary_error("next_doc", exc) from exc


def seek_op(op: PhysicalOp, doc_id: int) -> None:
    """Seek an operator through the same error boundary as :func:`pull_doc`."""
    try:
        op.seek_doc(doc_id)
    except GraftError:
        raise
    except Exception as exc:
        raise _boundary_error(f"seek_doc({doc_id})", exc) from exc


class DocCursor:
    """Peekable wrapper over a physical operator's doc-group stream.

    Pulls call the operator directly — the error boundary lives at the
    root of the tree (:func:`pull_doc` / :func:`seek_op`), which
    attributes failures to the innermost operator from the traceback, so
    the hot path pays nothing for it.  ``group`` is the current doc
    group (``None`` at end of stream); per-document loops may read it
    directly instead of going through :meth:`doc` and :meth:`rows`.
    """

    __slots__ = ("op", "group")

    def __init__(self, op: PhysicalOp):
        self.op = op
        self.group: DocGroup | None = op.next_doc()

    def doc(self) -> int | None:
        """Current group's doc id, or None at end of stream."""
        return self.group[0] if self.group is not None else None

    def rows(self) -> Iterator[tuple]:
        if self.group is None:
            raise ExecutionError("cursor exhausted")
        return self.group[1]

    def advance(self) -> None:
        self.group = self.op.next_doc()

    def seek(self, doc_id: int) -> None:
        """Move to the first group with doc >= ``doc_id`` (no-op when
        already there)."""
        if self.group is not None and self.group[0] >= doc_id:
            return
        self.op.seek_doc(doc_id)
        self.group = self.op.next_doc()

    def floor(self, handed_out: bool = False) -> int | None:
        """A doc id the cursor's next group is known to be at or past:
        the current group's, or — when the current group was already
        handed out — the operator's :meth:`PhysicalOp.doc_floor` for the
        one after it (None: unknown)."""
        if handed_out:
            return self.op.doc_floor()
        return self.group[0] if self.group is not None else END

    def skip(self, doc_id: int) -> None:
        """Move past the current group, already handed out, to the first
        group with doc >= ``doc_id``.  The next group is read directly when
        it is known to land at or past ``doc_id``; otherwise the cursor
        seeks there instead of reading a document only to pass it."""
        group = self.group
        if group is None:
            return
        op = self.op
        if group[0] < doc_id:
            floor = op.doc_floor()
            if floor is None or floor < doc_id:
                op.seek_doc(doc_id)
        self.group = op.next_doc()
