"""The unary-chain driver, selection, sort, counting, anti-join and
alternate elimination.

Operators that emit lazy per-document row iterators defer advancing their
child until the next ``next_doc``/``seek_doc`` call, honoring the contract
that a group's rows remain valid until then.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.exec.iterator import (
    DocCursor,
    DocGroup,
    PhysicalOp,
    RowSchema,
    Runtime,
)
from repro.exec.join_ops import any_structural, compile_predicates, conjunction
from repro.ma.match_table import ANY_POSITION, cell_sort_key
from repro.mcalc.ast import Pred


class ChainOp(PhysicalOp):
    """A per-document unary operator, and the one driver of fused runs of
    them.

    A subclass states one *kernel*, ``self.kernel(doc, rows)``, a closure
    compiled in its constructor.  A lazy stage's kernel returns the
    document's output rows, pulled on demand; a folding stage
    (:attr:`folds`) consumes what it needs of ``rows`` and returns the
    document's single output row, or ``None`` when there is none.  A
    kernel closes over the values it needs, never over its operator: a
    kernel that held its operator would tie the tree into a reference
    cycle through the driver's kernel cache, and a finished query's
    operators would wait for the cyclic collector instead of being freed
    with the last reference.

    Built over an ordinary operator, a stage is a chain of one and drives
    itself.  Built directly over another ``ChainOp``, it adopts that
    operator's stages and child cursor and drives the whole run: per
    document, the child's rows pass through the kernels bottom-up inside
    a single ``next_doc`` — no cursor, settle step or generator frame
    between the links.  The stage below is then never pulled itself; it
    only lends its kernel and its schema.

    Fusion is a decision about the physical tree only (the
    :class:`repro.exec.scan_ops.ScoredPreCountScanOp` precedent): each
    kernel computes what the standalone operator computes, in the same
    order, on rows pulled equally lazily.  Under a tracer or a fault
    injector nothing fuses — every logical node keeps its own operator,
    so EXPLAIN ANALYZE and per-operator fault coverage see one operator
    per node.

    A run that folds emits at most one row per document, advances its
    child eagerly and skips documents that fold to nothing; a run of lazy
    stages only defers advancing the child until the next
    ``next_doc``/``seek_doc``, honoring the rows-validity contract.
    """

    #: Whether the kernel folds a document's rows into at most one row.
    folds = False

    #: The stage's kernel; every subclass constructor assigns it.
    kernel: Callable

    def __init__(self, runtime: Runtime, child: PhysicalOp):
        self.runtime = runtime
        if (
            isinstance(child, ChainOp)
            and runtime.tracer is None
            and runtime.faults is None
        ):
            #: The adopted stages under this one, bottom-up.
            self._below: tuple[ChainOp, ...] = child._below + (child,)
            self.child = child.child
            #: What error boundaries call this operator: a fused run's
            #: failure is somewhere in the run, so the run is named.
            self.op_name = f"{child.op_name}+{type(self).__name__}"
        else:
            self._below = ()
            self.child = DocCursor(child)
            self.op_name = type(self).__name__
        self.schema = child.schema
        self._pending_advance = False
        #: ``(folds, kernel)`` per stage, bottom-up; collected on the first
        #: ``next_doc``, when every stage has finished construction.
        self._kernels: tuple[tuple[bool, Callable], ...] | None = None

    def next_doc(self) -> DocGroup | None:
        child = self.child
        if self._pending_advance:
            child.advance()
            self._pending_advance = False
        kernels = self._kernels
        if kernels is None:
            kernels = self._kernels = tuple(
                (stage.folds, stage.kernel) for stage in self._below + (self,)
            )
        guard = self.runtime.guard
        governed = guard.active
        while True:
            if governed:
                # One heartbeat per link, as when each was its own operator.
                guard.tick(len(kernels))
            group = child.group
            if group is None:
                return None
            doc, rows = group
            folded = False
            for folds, kernel in kernels:
                rows = kernel(doc, rows)
                if folds:
                    if rows is None:
                        break
                    folded = True
                    rows = (rows,)
            else:
                if folded:
                    child.advance()
                    return doc, iter(rows)
                self._pending_advance = True
                return doc, rows
            # Folded to nothing (every row was filtered out upstream).
            child.advance()

    def seek_doc(self, doc_id: int) -> None:
        # A handed-out group is skipped, not read past: fused or not, the
        # seek goes straight to the child, so the work counters (lazy
        # billing) do not depend on whether a run is fused.
        if self._pending_advance:
            self._pending_advance = False
            self.child.skip(doc_id)
        else:
            self.child.seek(doc_id)

    def doc_floor(self) -> int | None:
        return self.child.floor(self._pending_advance)


class SelectOp(ChainOp):
    """Filter rows by a conjunction of full-text predicates."""

    def __init__(self, runtime: Runtime, child: PhysicalOp, predicates: tuple[Pred, ...]):
        super().__init__(runtime, child)
        preds = compile_predicates(predicates, self.schema)
        holds = conjunction(preds)
        structural = any_structural(preds)
        sentence_starts_of = runtime.index.sentence_starts_of

        def kernel(doc: int, rows: Iterator[tuple]) -> Iterator[tuple]:
            if holds is None:
                return rows
            starts = sentence_starts_of(doc) if structural else ()
            return (row for row in rows if holds(row, starts))

        self.kernel = kernel


class ForgetOp(ChainOp):
    """Generalized projection forgetting the positions of some columns
    (first half of the pre-counting chain)."""

    def __init__(self, runtime: Runtime, child: PhysicalOp, vars: tuple[str, ...]):
        super().__init__(runtime, child)
        indices = tuple(self.schema.position_index(v) for v in vars)

        def forget(row: tuple) -> tuple:
            out = list(row)
            for i in indices:
                out[i] = ANY_POSITION
            return tuple(out)

        self.kernel = lambda doc, rows: map(forget, rows)


class SortOp(PhysicalOp):
    """Per-document lexicographic sort.

    The canonical plan's global sort orders rows by (doc, positions...);
    since every stream is already doc-major, sorting within each document
    is equivalent and keeps the operator streaming.
    """

    def __init__(self, runtime: Runtime, child: PhysicalOp, sort_vars: tuple[str, ...]):
        self.runtime = runtime
        self.child = DocCursor(child)
        self.schema = child.schema
        self._indices = tuple(
            self.schema.position_index(v)
            for v in sort_vars
            if v in self.schema.positions
        )

    def next_doc(self) -> DocGroup | None:
        doc = self.child.doc()
        if doc is None:
            return None
        indices = self._indices
        rows = sorted(
            self.child.rows(),
            key=lambda r: tuple(cell_sort_key(r[i]) for i in indices),
        )
        self.child.advance()
        guard = self.runtime.guard
        if guard.active:
            guard.charge_rows(len(rows))
        return doc, iter(rows)

    def seek_doc(self, doc_id: int) -> None:
        self.child.seek(doc_id)

    def doc_floor(self) -> int:
        return self.child.floor()


class CountOp(PhysicalOp):
    """Eager counting: collapse identical rows into one row whose
    multiplicity is the sum of the collapsed rows' multiplicities."""

    def __init__(self, runtime: Runtime, child: PhysicalOp):
        self.runtime = runtime
        self.child = DocCursor(child)
        self.schema = child.schema
        self._count_index = self.schema.count_index

    def next_doc(self) -> DocGroup | None:
        doc = self.child.doc()
        if doc is None:
            return None
        ci = self._count_index
        tally: dict[tuple, int] = {}
        for row in self.child.rows():
            key = row[:ci]
            tally[key] = tally.get(key, 0) + row[ci]
        self.child.advance()
        self.runtime.metrics.rows_grouped += len(tally)
        guard = self.runtime.guard
        if guard.active:
            guard.charge_rows(len(tally))
        return doc, (key + (count,) for key, count in tally.items())

    def seek_doc(self, doc_id: int) -> None:
        self.child.seek(doc_id)

    def doc_floor(self) -> int:
        return self.child.floor()


class AntiJoinOp(PhysicalOp):
    """Document-level anti-join: left documents absent from the right."""

    def __init__(self, runtime: Runtime, left: PhysicalOp, right: PhysicalOp):
        self.runtime = runtime
        self.left = DocCursor(left)
        self.right = DocCursor(right)
        self.schema = left.schema
        self._pending_advance = False

    def next_doc(self) -> DocGroup | None:
        if self._pending_advance:
            self.left.advance()
            self._pending_advance = False
        guard = self.runtime.guard
        governed = guard.active
        while True:
            if governed:
                guard.tick()
            doc = self.left.doc()
            if doc is None:
                return None
            self.right.seek(doc)
            if self.right.doc() == doc:
                self.left.advance()
                continue
            self._pending_advance = True
            return doc, self.left.rows()

    def seek_doc(self, doc_id: int) -> None:
        if self._pending_advance:
            self._pending_advance = False
            self.left.skip(doc_id)
        else:
            self.left.seek(doc_id)

    def doc_floor(self) -> int | None:
        return self.left.floor(self._pending_advance)


class AlternateElimOp(ChainOp):
    """The delta operator: first row per document, then skip.

    "It emits a new result match as soon as a new group is seen instead of
    waiting to see all group members, and it signals its child operators
    to skip any further tuples in the group" — the skip signal here is
    simply abandoning the lazy row iterator, which leaves unconsumed join
    combinations ungenerated and unbilled.
    """

    folds = True

    def __init__(self, runtime: Runtime, child: PhysicalOp):
        super().__init__(runtime, child)
        ci = self.schema.count_index

        def kernel(doc: int, rows: Iterator[tuple]) -> tuple | None:
            first = next(iter(rows), None)
            if first is None:
                # The document's rows were all filtered out: not a match.
                return None
            if first[ci] != 1:
                # Multiplicity is meaningless once duplicates are skipped.
                first = first[:ci] + (1,) + first[ci + 1:]
            return first

        self.kernel = kernel
