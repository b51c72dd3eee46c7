"""The in-memory index: term-position plus term-document views.

All measurements in the paper are taken with index entries cached in RAM
("no measured times include disk access", Section 8), so an in-memory index
reproduces the paper's physical setting faithfully.

The *term-document* view exists as a distinct object, not a convenience
accessor: the pre-counting optimization's benefit (Section 5.2.3) is that
``CA`` scans one entry per document instead of one entry per position, and
the two leaf operators in :mod:`repro.exec.scan_ops` bill their work
accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.index.postings import PositionPostings
from repro.index.stats import CollectionStats


class TermDocumentPostings:
    """Per-term entries of the term-document index: (doc, count) pairs.

    Cursors bisect zero-copy ``memoryview``\\ s of the arrays
    (:attr:`doc_id_seq`, :attr:`count_seq`) — indexing a memoryview
    yields Python ints at list-like cost without materializing a list
    copy per term, and the same accessors work unchanged over the
    packed substrate's shared-memory buffers.
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

    @classmethod
    def from_positions(cls, postings: PositionPostings) -> "TermDocumentPostings":
        counts = np.asarray([len(o) for o in postings.offsets], dtype=np.int64)
        return cls(postings.doc_ids, counts)

    def __len__(self) -> int:
        return len(self.doc_ids)


class Index:
    """A built index over a document collection.

    Attributes:
        terms: term -> :class:`PositionPostings` (the term-position index).
        doc_terms: term -> :class:`TermDocumentPostings` (the term-document
            index, a logical subset of the former).
        stats: collection statistics for scoring.
        sentence_starts: per-document sentence-start offsets (empty tuples
            when the analyzer recorded none); consulted by structural
            predicates like SAMESENTENCE.
    """

    def __init__(
        self,
        terms: dict[str, PositionPostings],
        stats: CollectionStats,
        sentence_starts: list[tuple[int, ...]] | None = None,
    ):
        self.terms = terms
        self.stats = stats
        self.sentence_starts = (
            sentence_starts
            if sentence_starts is not None
            else [()] * stats.num_docs
        )
        self.doc_terms: dict[str, TermDocumentPostings] = {
            term: TermDocumentPostings.from_positions(p)
            for term, p in terms.items()
        }

    def sentence_starts_of(self, doc_id: int) -> tuple[int, ...]:
        """Sentence-start offsets of ``doc_id`` (empty when unknown)."""
        if 0 <= doc_id < len(self.sentence_starts):
            return self.sentence_starts[doc_id]
        return ()

    # -- lookups used by scoring contexts ---------------------------------

    def postings(self, term: str) -> PositionPostings:
        """Position postings for ``term`` (empty postings if unseen)."""
        return self.terms.get(term, _EMPTY_POSTINGS)

    def document_frequency(self, term: str) -> int:
        """#DOCS for ``term``."""
        return self.postings(term).document_frequency

    def term_frequency(self, doc_id: int, term: str) -> int:
        """#INDOC for ``term`` in ``doc_id``."""
        return self.postings(term).term_frequency(doc_id)

    def total_positions(self, term: str) -> int:
        return self.postings(term).total_positions

    @property
    def num_docs(self) -> int:
        return self.stats.num_docs

    def vocabulary_size(self) -> int:
        return len(self.terms)


_EMPTY_POSTINGS = PositionPostings(np.empty(0, dtype=np.int64), [])
