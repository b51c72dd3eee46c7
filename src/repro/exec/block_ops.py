"""Pre-counted blocks: join/union subtrees over ``CA`` leaves, set-at-a-time.

A pre-counted leaf (Section 5.2.3) is one term-document entry per
document, its position forgotten: one ``(ANY_POSITION, #INDOC)`` row.  A
subtree made only of such leaves, outer unions and predicate-free merge
joins therefore decides nothing per position.  Which documents it emits,
and which rows each of them gets, depend only on *which* of its leaves
occur in the document; the rows' multiplicities are products of the
leaves' counts.

:class:`PreCountBlockOp` evaluates such a subtree as one operator.  On
construction it reads every leaf's ``doc_ids`` / ``counts`` arrays and, in
NumPy, builds one dense presence bitmask per document over the index's
(or the shard's) doc range, takes the block's documents from a truth
table of the join/union formula over those bitmasks, and gathers each
leaf's count per output document.  Per document it then instantiates the
row template of that document's bitmask: the cells (``ANY_POSITION`` or
the empty symbol ``None``) and, as count, the product of the contributing
leaves' counts — the rows :class:`repro.exec.join_ops.MergeJoinOp` and
:class:`repro.exec.union_ops.UnionOp` emit for that document, in the same
order, so everything above computes the same values in the same order.

Work is billed for what the block forms, lazily where the row tree is
lazy: per output document its contributing leaf entries and the rows of
joins nested under another join; the rows of the joins the consumer
reaches through unions only (the block's top join) as the consumer pulls
them.  Entries the zig-zag lands on in documents the block does not
emit, and inner-join rows of documents an outer join rejects, are never
formed, so ``doc_entries_scanned``, ``rows_joined`` and ``rows_charged``
can only be lower than the row tree's.

Output documents are handed to Python in chunks of :data:`CHUNK`, so the
builtin-int lists a query holds stay bounded whatever the doc range.
"""

from __future__ import annotations

from bisect import bisect_left
from math import prod
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from repro.errors import ExecutionError
from repro.exec.iterator import END, DocGroup, PhysicalOp, RowSchema, Runtime
from repro.ma.match_table import ANY_POSITION
from repro.ma.nodes import Join, PlanNode, PreCountAtom, Union

#: Output documents converted to builtin-int lists at a time.
CHUNK = 256
#: A block holds at most this many leaves: one bit each in a document's
#: mask, and a truth table of ``2**MAX_LEAVES`` entries at most.  A larger
#: subtree is not a block; its subtrees may be.
MAX_LEAVES = 12


def is_precount_block(node: PlanNode) -> bool:
    """Whether ``node`` roots a block: a join or union whose subtree holds
    only ``CA`` leaves, outer unions and predicate-free merge joins."""
    if not isinstance(node, (Join, Union)):
        return False
    leaves = _block_leaves(node)
    return leaves is not None and leaves <= MAX_LEAVES


def _block_leaves(node: PlanNode) -> int | None:
    """The subtree's leaf count, or None if it is not block-shaped."""
    if isinstance(node, PreCountAtom):
        return 1
    if isinstance(node, Join):
        if node.predicates or node.algorithm != "merge":
            return None
    elif not isinstance(node, Union):
        return None
    left = _block_leaves(node.left)
    if left is None:
        return None
    right = _block_leaves(node.right)
    return None if right is None else left + right


# -- the block's shape ---------------------------------------------------------
#
# A shape node is a tuple: ``(LEAF, positions, i)``, ``(JOIN, positions,
# left, right)`` or ``(UNION, positions, left, right, lmap, rmap)``, where
# a union's maps give, per output column, the branch cell index or None.

_LEAF, _JOIN, _UNION = 0, 1, 2


def _shape(node: PlanNode, leaves: list[PreCountAtom]) -> tuple:
    if isinstance(node, PreCountAtom):
        leaves.append(node)
        return (_LEAF, (node.var,), len(leaves) - 1)
    left = _shape(node.left, leaves)
    right = _shape(node.right, leaves)
    lpos, rpos = left[1], right[1]
    if isinstance(node, Join):
        overlap = set(lpos) & set(rpos)
        if overlap:
            raise ExecutionError(f"join inputs share position columns {overlap}")
        return (_JOIN, lpos + rpos, left, right)
    positions = lpos + tuple(v for v in rpos if v not in lpos)
    lmap = tuple(lpos.index(v) if v in lpos else None for v in positions)
    rmap = tuple(rpos.index(v) if v in rpos else None for v in positions)
    return (_UNION, positions, left, right, lmap, rmap)


def _formula(shape: tuple, present: Callable[[int], np.ndarray]) -> np.ndarray:
    """The shape's join/union formula over per-leaf presence arrays."""
    kind = shape[0]
    if kind == _LEAF:
        return present(shape[2])
    left = _formula(shape[2], present)
    right = _formula(shape[3], present)
    return left & right if kind == _JOIN else left | right


def _pad(rows: list, cell_map: tuple) -> list:
    return [
        (tuple([cells[i] if i is not None else None for i in cell_map]), leaves, lazy)
        for cells, leaves, lazy in rows
    ]


def _instantiate(shape: tuple, mask: int, lazy: bool) -> tuple[list | None, int, int]:
    """One bitmask's rows of ``shape`` as ``(cells, leaves, billed lazily)``
    in emission order (None: the document is not in the shape's stream),
    with the rows of joins billed eagerly and the leaf entries read.

    ``lazy`` marks the joins the block's consumer reaches through unions
    only: their rows are billed as pulled, the way ``MergeJoinOp`` yields
    them; a join under another join is drained by it on arrival.  Work
    under a join that does not match is never formed, and not billed.
    """
    kind = shape[0]
    if kind == _LEAF:
        i = shape[2]
        if not mask >> i & 1:
            return None, 0, 0
        return [((ANY_POSITION,), (i,), False)], 0, 1
    if kind == _JOIN:
        left, l_eager, l_entries = _instantiate(shape[2], mask, False)
        right, r_eager, r_entries = _instantiate(shape[3], mask, False)
        if left is None or right is None:
            return None, 0, 0
        rows = [
            (lcells + rcells, lleaves + rleaves, lazy)
            for lcells, lleaves, _ in left
            for rcells, rleaves, _ in right
        ]
        eager = l_eager + r_eager + (0 if lazy else len(rows))
        return rows, eager, l_entries + r_entries
    left, l_eager, l_entries = _instantiate(shape[2], mask, lazy)
    right, r_eager, r_entries = _instantiate(shape[3], mask, lazy)
    if left is None and right is None:
        return None, 0, 0
    rows = []
    if left is not None:
        rows += _pad(left, shape[4])
    if right is not None:
        rows += _pad(right, shape[5])
    return rows, l_eager + r_eager, l_entries + r_entries


def _row_maker(cells: tuple, leaves: tuple[int, ...], k: int) -> Callable:
    """``counts -> row``: the cells and the product of the leaves' counts
    (Python ints, exact like the row tree's ``lcount * rcount``)."""
    if len(leaves) == 1:
        i = leaves[0]
        return lambda counts: cells + (counts[i],)
    if sorted(leaves) == list(range(k)):
        return lambda counts: cells + (prod(counts),)
    pick = itemgetter(*leaves)
    return lambda counts: cells + (prod(pick(counts)),)


class PreCountBlockOp(PhysicalOp):
    """A maximal join/union subtree over ``CA`` leaves as one operator."""

    def __init__(self, runtime: Runtime, node: PlanNode):
        self.runtime = runtime
        leaves: list[PreCountAtom] = []
        self._shape = _shape(node, leaves)
        self.schema = RowSchema(positions=self._shape[1])
        k = self._k = len(leaves)
        dtype = np.uint8 if k <= 8 else np.uint16
        lo, hi = runtime.index.doc_range
        # One bit per leaf in a dense array over the doc range, and each
        # leaf's count beside it.
        presence = np.zeros(hi - lo, dtype)
        counts = np.zeros((k, hi - lo), np.uint32)
        doc_terms = runtime.index.doc_terms
        for i, leaf in enumerate(leaves):
            postings = doc_terms.get(leaf.keyword)
            if postings is None or not len(postings.doc_ids):
                continue
            at = postings.doc_ids - lo if lo else postings.doc_ids
            presence[at] |= dtype(1 << i)
            counts[i, at] = postings.counts
        # The formula once per mask value, then looked up per document.
        codes = np.arange(1 << k, dtype=dtype)
        table = _formula(self._shape, lambda i: (codes >> i) & 1 != 0)
        out = np.flatnonzero(table[presence])
        self._out_docs = out + lo
        self._out_masks = presence[out]
        self._out_counts = counts[:, out]
        #: bitmask -> (row makers, per row whether it is billed as pulled
        #: (None: no row is), eager join rows, leaf entries), made on the
        #: bitmask's first document.
        self._templates: dict[int, tuple] = {}
        self._start = 0
        self._docs: list[int] = []
        self._j = 0
        self._load(0)

    def _load(self, start: int) -> bool:
        """Make ``[start, start + CHUNK)`` of the output the current chunk
        (False: past the end)."""
        end = min(start + CHUNK, len(self._out_docs))
        start = min(start, end)
        self._start = start
        self._j = 0
        self._docs = self._out_docs[start:end].tolist()
        self._masks = self._out_masks[start:end].tolist()
        self._counts = self._out_counts[:, start:end].T.tolist()
        return start < end

    def _template(self, mask: int) -> tuple:
        rows, eager, entries = _instantiate(self._shape, mask, True)
        k = self._k
        makers = tuple(_row_maker(cells, leaves, k) for cells, leaves, _ in rows)
        billed = tuple(lazy for _, _, lazy in rows)
        template = self._templates[mask] = (
            makers, billed if any(billed) else None, eager, entries
        )
        return template

    def next_doc(self) -> DocGroup | None:
        j = self._j
        if j >= len(self._docs):
            if not self._load(self._start + len(self._docs)):
                return None
            j = 0
        self._j = j + 1
        doc = self._docs[j]
        mask = self._masks[j]
        template = self._templates.get(mask)
        if template is None:
            template = self._template(mask)
        makers, billed, eager, entries = template
        counts = self._counts[j]
        rows = [make(counts) for make in makers]
        runtime = self.runtime
        metrics = runtime.metrics
        metrics.doc_entries_scanned += entries
        metrics.rows_joined += eager
        guard = runtime.guard
        if guard.active:
            guard.tick()
            guard.charge_rows(entries + eager)
            if eager:
                guard.charge_doc_rows(doc, eager)
        if billed is None:
            return doc, iter(rows)
        return doc, self._billed(doc, rows, billed)

    def _billed(
        self, doc: int, rows: list[tuple], flags: tuple[bool, ...]
    ) -> Iterator[tuple]:
        """The rows, those of the top join (flagged) billed as the
        consumer pulls them."""
        metrics = self.runtime.metrics
        guard = self.runtime.guard
        governed = guard.active
        for row, joined in zip(rows, flags):
            if joined:
                metrics.rows_joined += 1
                if governed:
                    guard.charge_rows()
                    guard.charge_doc_rows(doc)
            yield row

    def seek_doc(self, doc_id: int) -> None:
        docs = self._docs
        if docs and doc_id <= docs[-1]:
            self._j = bisect_left(docs, doc_id, self._j)
            return
        at = int(np.searchsorted(self._out_docs, doc_id))
        self._load(max(at, self._start + len(docs)))

    def doc_floor(self) -> int:
        j = self._j
        if j < len(self._docs):
            return self._docs[j]
        at = self._start + j
        return int(self._out_docs[at]) if at < len(self._out_docs) else END
