"""Postings lists: the physical storage behind index scans.

A term's postings map each document containing the term to the ascending
list of offsets at which it occurs.  Document ids are kept in a sorted
NumPy array so that seeks (``skip pointers`` in IR terms, the enabler of
zig-zag joins) are ``O(log n)`` via binary search.

Both views of the index live here: :class:`PositionPostings` for the
term-position index the ``A`` leaves scan, and
:class:`TermDocumentPostings` for the term-document index ``CA`` scans.
:class:`repro.index.packed.PackedIndex` decodes each term frame into one
of each, on first use.

The term-document view exists as a distinct object, not a convenience
accessor: the pre-counting optimization's benefit (Section 5.2.3) is that
``CA`` scans one entry per document instead of one entry per position, and
the two leaf operators in :mod:`repro.exec.scan_ops` bill their work
accordingly.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


class PositionPostings:
    """Postings for a single term in the term-position index.

    Attributes:
        doc_ids: Sorted ``int64`` array of documents containing the term.
        offsets: ``offsets[i]`` is the ascending tuple of positions of the
            term in ``doc_ids[i]``.

    Doc ids are held at most twice: the NumPy array (bulk searchsorted,
    shard slicing) and one lazy Python list that every cursor bisects —
    point lookups (:meth:`positions_in`) bisect the same list instead of
    keeping a third copy in a doc-to-entry dict.
    """

    __slots__ = (
        "doc_ids",
        "offsets",
        "_total_positions",
        "_doc_id_list",
    )

    def __init__(self, doc_ids: np.ndarray, offsets: list[tuple[int, ...]]):
        if len(doc_ids) != len(offsets):
            raise ValueError("doc_ids and offsets must be aligned")
        self.doc_ids = doc_ids
        self.offsets = offsets
        self._total_positions = sum(map(len, offsets))
        self._doc_id_list: list[int] | None = None

    @property
    def doc_id_list(self) -> list[int]:
        """Doc ids as a plain list (lazy): scan cursors bisect this —
        per-call overhead of NumPy searchsorted dominates zig-zag seeks."""
        if self._doc_id_list is None:
            self._doc_id_list = self.doc_ids.tolist()
        return self._doc_id_list

    @property
    def doc_id_seq(self):
        """The bisectable doc-id sequence — the accessor scan cursors
        share with :class:`TermDocumentPostings`, where it is a zero-copy
        buffer view instead of a list."""
        return self.doc_id_list

    @classmethod
    def from_dict(cls, by_doc: dict[int, list[int]]) -> "PositionPostings":
        """Build from a {doc_id: [offsets]} mapping, in any order."""
        docs = sorted(by_doc)
        doc_ids = np.asarray(docs, dtype=np.int64)
        offsets = [tuple(sorted(by_doc[d])) for d in docs]
        return cls(doc_ids, offsets)

    @classmethod
    def empty(cls) -> "PositionPostings":
        return cls(np.empty(0, dtype=np.int64), [])

    @property
    def document_frequency(self) -> int:
        """#DOCS in Figure 1: how many documents contain the term."""
        return len(self.doc_ids)

    @property
    def total_positions(self) -> int:
        """Total occurrences of the term across the collection."""
        return self._total_positions

    def positions_in(self, doc_id: int) -> tuple[int, ...]:
        """Offsets of the term in ``doc_id`` (empty tuple if absent).

        O(log n) bisect over the shared doc-id list — the same structure
        the scan cursors seek on, so point lookups add no extra copy of
        the doc ids.
        """
        seq = self.doc_id_list
        i = bisect_left(seq, doc_id)
        if i < len(seq) and seq[i] == doc_id:
            return self.offsets[i]
        return ()

    def term_frequency(self, doc_id: int) -> int:
        """#INDOC in Figure 1: occurrences of the term in ``doc_id``.

        Called once per scored cell (a bound BM25 weigher holds this
        method), so the lookup of :meth:`positions_in` is spelled out
        rather than called.
        """
        seq = self._doc_id_list
        if seq is None:
            seq = self.doc_id_list
        i = bisect_left(seq, doc_id)
        if i < len(seq) and seq[i] == doc_id:
            return len(self.offsets[i])
        return 0

    def __len__(self) -> int:
        return len(self.doc_ids)


#: The postings of a term the index does not hold.
EMPTY_POSTINGS = PositionPostings.empty()


class TermDocumentPostings:
    """Per-term entries of the term-document index: (doc, count) pairs.

    Cursors bisect zero-copy ``memoryview``\\ s of the arrays
    (:attr:`doc_id_seq`, :attr:`count_seq`) — indexing a memoryview
    yields Python ints at list-like cost without materializing a list
    copy per term; the counts are a view of the packed frame itself.
    """

    __slots__ = ("doc_ids", "counts", "_doc_id_seq", "_count_seq")

    def __init__(self, doc_ids: np.ndarray, counts: np.ndarray):
        self.doc_ids = doc_ids
        self.counts = counts
        self._doc_id_seq: memoryview | None = None
        self._count_seq: memoryview | None = None

    @property
    def doc_id_seq(self) -> memoryview:
        if self._doc_id_seq is None:
            self._doc_id_seq = memoryview(self.doc_ids)
        return self._doc_id_seq

    @property
    def count_seq(self) -> memoryview:
        if self._count_seq is None:
            self._count_seq = memoryview(self.counts)
        return self._count_seq

    def __len__(self) -> int:
        return len(self.doc_ids)
