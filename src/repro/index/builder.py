"""Index construction from a document collection.

Documents become an index one way: :func:`flatten` turns the whole
collection into term-sorted arrays in a handful of NumPy passes, and
both consumers cut what they need from those arrays — :func:`build_index`
the object :class:`Index` the executor scans, and
:func:`repro.index.packed.pack_documents` the packed blob a checkpoint
writes, without building the object index first.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from repro.corpus.document import Document
from repro.index.index import Index, TermDocumentPostings
from repro.index.postings import PositionPostings
from repro.index.stats import CollectionStats


class FlatIndex(NamedTuple):
    """An index as term-sorted arrays.

    Entry ``j`` is one (term, document) pair: term ``i`` owns entries
    ``doc_bounds[i]:doc_bounds[i + 1]``, in ascending ``doc_ids`` order,
    and entry ``j``'s ``counts[j]`` ascending offsets are the next run of
    ``positions``.
    """

    terms: list[str]
    doc_bounds: np.ndarray
    doc_ids: np.ndarray
    counts: np.ndarray
    positions: np.ndarray
    doc_lengths: np.ndarray
    sentence_starts: list[tuple[int, ...]]


def flatten(documents: Iterable[Document]) -> FlatIndex:
    """The documents, in dense id order, as a :class:`FlatIndex`.

    One dict lookup per token gives a term id (ids in first-seen order);
    one stable argsort by the term's rank in sorted order brings every
    term's tokens together while keeping them in (document, offset)
    order; run boundaries of (term, document) then mark the entries.
    """
    docs = list(documents)
    token_seqs = [doc.tokens for doc in docs]
    doc_lengths = np.fromiter(map(len, token_seqs), np.int64, len(docs))
    n = int(doc_lengths.sum())
    # A missing token is assigned the next id (the dict's length).
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__
    token_ids = np.fromiter(
        map(ids.__getitem__, chain.from_iterable(token_seqs)), np.int64, n
    )
    first_seen = list(ids)
    by_rank = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    # The narrowest dtype that holds every rank: up to 2^16 terms the
    # stable argsort below is a radix sort, several times faster.
    rank = np.empty(len(first_seen), np.min_scalar_type(len(first_seen)))
    rank[by_rank] = np.arange(len(first_seen))

    starts = np.cumsum(doc_lengths) - doc_lengths
    token_docs = np.repeat(np.arange(len(docs), dtype=np.int64), doc_lengths)
    offsets = np.arange(n, dtype=np.int64) - np.repeat(starts, doc_lengths)

    token_ranks = rank[token_ids]
    order = np.argsort(token_ranks, kind="stable")
    token_ranks = token_ranks[order]
    token_docs = token_docs[order]
    new_entry = np.ones(n, bool)
    new_entry[1:] = (token_ranks[1:] != token_ranks[:-1]) | (
        token_docs[1:] != token_docs[:-1]
    )
    entry_starts = np.flatnonzero(new_entry)
    return FlatIndex(
        terms=[first_seen[i] for i in by_rank],
        doc_bounds=np.searchsorted(
            token_ranks[entry_starts], np.arange(len(first_seen) + 1)
        ),
        doc_ids=token_docs[entry_starts],
        counts=np.diff(entry_starts, append=n),
        positions=offsets[order],
        doc_lengths=doc_lengths,
        sentence_starts=[tuple(doc.sentence_starts) for doc in docs],
    )


def build_index(collection: Iterable[Document]) -> Index:
    """Build an :class:`Index` over every document in ``collection``.

    Each term's postings are array slices of one :func:`flatten`; its
    offsets are tuples of builtin ints cut from one ``tolist``, and its
    term-document counts are the flattened count slice.
    """
    flat = flatten(collection)
    positions = flat.positions.tolist()
    cuts = [0, *np.cumsum(flat.counts).tolist()]
    # Most entries hold one position; those share one tuple per offset.
    singles = [(p,) for p in range(int(flat.doc_lengths.max(initial=0)))]
    offsets = [
        singles[positions[a]] if b - a == 1 else tuple(positions[a:b])
        for a, b in zip(cuts, cuts[1:])
    ]
    bounds = flat.doc_bounds.tolist()
    # Constructed empty, so the term-document view is not recounted from
    # the offsets: both views are filled from the same slices.
    index = Index({}, CollectionStats(flat.doc_lengths), flat.sentence_starts)
    for term, a, b in zip(flat.terms, bounds, bounds[1:]):
        doc_ids = flat.doc_ids[a:b]
        index.terms[term] = PositionPostings(doc_ids, offsets[a:b])
        index.doc_terms[term] = TermDocumentPostings(doc_ids, flat.counts[a:b])
    return index


class IndexBuilder:
    """Collects documents for one :func:`build_index`.

    Documents must arrive in dense ascending id order (guaranteed when
    building from a :class:`DocumentCollection`).
    """

    def __init__(self):
        self._docs: list[Document] = []

    def add_document(
        self,
        doc_id: int,
        tokens: tuple[str, ...],
        sentence_starts: tuple[int, ...] = (),
    ) -> None:
        if doc_id != len(self._docs):
            raise ValueError(
                f"documents must be added in dense id order; expected "
                f"{len(self._docs)}, got {doc_id}"
            )
        self._docs.append(
            Document(doc_id, tuple(tokens), sentence_starts=tuple(sentence_starts))
        )

    def build(self) -> Index:
        return build_index(self._docs)
