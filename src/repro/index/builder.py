"""Index construction from a document collection."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.corpus.collection import DocumentCollection
from repro.index.index import Index
from repro.index.postings import PositionPostings
from repro.index.stats import CollectionStats


class IndexBuilder:
    """Single-pass, in-memory index builder.

    Documents must arrive in ascending id order (guaranteed when building
    from a :class:`DocumentCollection`), which keeps postings doc-sorted
    without a final sort.
    """

    def __init__(self):
        self._by_term: dict[str, dict[int, list[int]]] = defaultdict(dict)
        self._doc_lengths: list[int] = []
        self._sentence_starts: list[tuple[int, ...]] = []

    def add_document(
        self,
        doc_id: int,
        tokens: tuple[str, ...],
        sentence_starts: tuple[int, ...] = (),
    ) -> None:
        if doc_id != len(self._doc_lengths):
            raise ValueError(
                f"documents must be added in dense id order; expected "
                f"{len(self._doc_lengths)}, got {doc_id}"
            )
        self._doc_lengths.append(len(tokens))
        self._sentence_starts.append(tuple(sentence_starts))
        by_term = self._by_term
        for offset, term in enumerate(tokens):
            docs = by_term[term]
            if doc_id in docs:
                docs[doc_id].append(offset)
            else:
                docs[doc_id] = [offset]

    def build(self) -> Index:
        terms = {
            term: PositionPostings.from_dict(by_doc)
            for term, by_doc in self._by_term.items()
        }
        stats = CollectionStats(np.asarray(self._doc_lengths, dtype=np.int64))
        return Index(terms, stats, sentence_starts=self._sentence_starts)


def build_index(collection: DocumentCollection) -> Index:
    """Build an :class:`Index` over every document in ``collection``."""
    builder = IndexBuilder()
    for doc in collection:
        builder.add_document(doc.doc_id, doc.tokens, doc.sentence_starts)
    return builder.build()
