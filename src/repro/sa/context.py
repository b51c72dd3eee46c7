"""Scoring contexts: the statistics interface of initializer functions.

The paper's ``alpha`` receives "not merely an id, but a collection of
relevant statistics" for the document and the position (Example 3).  A
:class:`ScoringContext` supplies those statistics; the live implementation
reads them from an index, and :class:`OverrideScoringContext` lets tests
and worked examples substitute the paper's published numbers (Figure 1's
#DOCS column, the 4.6M-document collection size) without indexing the
actual Wikipedia snapshot.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.index.packed import PackedIndex


class ScoringContext(ABC):
    """Statistics provider for scoring schemes."""

    @abstractmethod
    def collection_size(self) -> int:
        """Number of documents in the library (``d.collectionSize``)."""

    @abstractmethod
    def doc_length(self, doc_id: int) -> int:
        """Length in tokens of ``doc_id`` (``d.length``)."""

    @abstractmethod
    def avg_doc_length(self) -> float:
        """Mean document length (used by BM25)."""

    @abstractmethod
    def term_frequency(self, doc_id: int, term: str) -> int:
        """#INDOC: occurrences of ``term`` in ``doc_id``."""

    @abstractmethod
    def document_frequency(self, term: str) -> int:
        """#DOCS: documents containing ``term``."""

    def bind_term_frequency(self, term: str) -> Callable[[int], int]:
        """:meth:`term_frequency` bound to one term: ``doc_id -> #INDOC``.

        Initializers bound once per (query, variable)
        (:meth:`repro.sa.scheme.ScoringScheme.alpha_for`) call this once
        and the result once per document, so a context may hoist whatever
        its per-term lookup costs out of the per-document call.  The
        default closes over :meth:`term_frequency`; the values are the
        same by definition.
        """
        term_frequency = self.term_frequency
        return lambda doc_id: term_frequency(doc_id, term)


class IndexScoringContext(ScoringContext):
    """Statistics read from a built :class:`repro.index.PackedIndex`."""

    def __init__(self, index: PackedIndex):
        self.index = index

    def collection_size(self) -> int:
        return self.index.num_docs

    def doc_length(self, doc_id: int) -> int:
        return self.index.stats.doc_length(doc_id)

    def avg_doc_length(self) -> float:
        return self.index.stats.avg_doc_length

    def term_frequency(self, doc_id: int, term: str) -> int:
        return self.index.term_frequency(doc_id, term)

    def document_frequency(self, term: str) -> int:
        return self.index.document_frequency(term)

    def bind_term_frequency(self, term: str) -> Callable[[int], int]:
        # The term's postings are looked up here, once, not per document.
        return self.index.postings(term).term_frequency


class OverrideScoringContext(ScoringContext):
    """A context with selected statistics replaced by fixed values.

    Args:
        base: Context supplying any statistic not overridden.
        collection_size: Replacement for the document count.
        document_frequency: Replacement #DOCS per term (terms not listed
            fall through to ``base``).
        avg_doc_length: Replacement mean document length.
    """

    def __init__(
        self,
        base: ScoringContext,
        collection_size: int | None = None,
        document_frequency: dict[str, int] | None = None,
        avg_doc_length: float | None = None,
    ):
        self.base = base
        self._collection_size = collection_size
        self._document_frequency = document_frequency or {}
        self._avg_doc_length = avg_doc_length

    def collection_size(self) -> int:
        if self._collection_size is not None:
            return self._collection_size
        return self.base.collection_size()

    def doc_length(self, doc_id: int) -> int:
        return self.base.doc_length(doc_id)

    def avg_doc_length(self) -> float:
        if self._avg_doc_length is not None:
            return self._avg_doc_length
        return self.base.avg_doc_length()

    def term_frequency(self, doc_id: int, term: str) -> int:
        return self.base.term_frequency(doc_id, term)

    def bind_term_frequency(self, term: str) -> Callable[[int], int]:
        return self.base.bind_term_frequency(term)

    def document_frequency(self, term: str) -> int:
        if term in self._document_frequency:
            return self._document_frequency[term]
        return self.base.document_frequency(term)
