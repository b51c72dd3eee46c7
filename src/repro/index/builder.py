"""Index construction from a document collection.

Documents become an index one way: :func:`flatten` turns the whole
collection into term-sorted arrays in a handful of NumPy passes,
:func:`repro.index.packed.pack_documents` writes the packed blob from
those arrays (what a checkpoint does), and :func:`build_index` serves
that blob as the one index class,
:class:`repro.index.packed.PackedIndex`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.corpus.document import Document
from repro.errors import IndexError_

if TYPE_CHECKING:
    from repro.index.packed import PackedIndex


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

    Raises :class:`repro.errors.IndexError_` unless the documents' ids
    are ``0, 1, 2, ...`` in order: a document's id is its position.
    """
    docs = list(documents)
    for expected, doc in enumerate(docs):
        if doc.doc_id != expected:
            raise IndexError_(
                f"documents must be in dense id order; expected "
                f"{expected}, got {doc.doc_id}"
            )
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


def build_index(collection: Iterable[Document]) -> "PackedIndex":
    """The index over every document in ``collection``: the packed blob
    a checkpoint would write for them, served as it is."""
    from repro.index.packed import PackedIndex, pack_documents

    return PackedIndex(pack_documents(collection))
