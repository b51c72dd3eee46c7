"""Document-partitioned index shards with *global* scoring statistics.

A :class:`ShardedIndex` splits a :class:`repro.index.packed.PackedIndex` into
contiguous doc-id ranges.  Each :class:`ShardView` exposes the same
lookup surface physical operators use (``postings``, ``doc_terms``,
``sentence_starts_of``) but restricted to its ``[lo, hi)`` range, so a
plan compiled against a shard scans only that shard's slice of every
postings list.

Score consistency is the design constraint (the whole point of the
paper is that rewrites — and now physical distribution — never change
scores): every *statistic* a scoring scheme may consult
(``stats``, ``document_frequency``, ``total_positions``, ``num_docs``)
delegates to the **base** index, never to the slice.  An idf-style
scheme therefore computes the exact same per-document score inside a
shard as it would on the whole index, which is what makes the top-k
merge in :mod:`repro.exec.parallel` bit-identical to serial execution
(the classic document-partitioned IR requirement; see
docs/PERFORMANCE.md).

Slices are cut with one binary search pair per (term, shard) and cached,
so repeated queries over the same shard pay dictionary lookups only.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping

import numpy as np

from repro.errors import GraftError
from repro.index.packed import PackedIndex
from repro.index.postings import (
    EMPTY_POSTINGS,
    PositionPostings,
    TermDocumentPostings,
)
from repro.index.stats import CollectionStats


class _ShardDocTerms:
    """Mapping-shaped view of the base term-document index, sliced to the
    owning shard's doc range.  Only ``get`` is needed — it is the sole
    accessor the physical scans use."""

    __slots__ = ("_shard",)

    def __init__(self, shard: "ShardView"):
        self._shard = shard

    def get(self, term: str) -> TermDocumentPostings | None:
        return self._shard._doc_postings(term)


class ShardView:
    """One contiguous doc-id slice ``[lo, hi)`` of a base index.

    Quacks like a :class:`PackedIndex` for plan execution (postings lookups
    are range-restricted) while every scoring statistic stays global.
    """

    __slots__ = (
        "base",
        "shard_id",
        "lo",
        "hi",
        "_pos_cache",
        "_doc_cache",
    )

    def __init__(self, base: PackedIndex, shard_id: int, lo: int, hi: int):
        self.base = base
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self._pos_cache: dict[str, PositionPostings] = {}
        self._doc_cache: dict[str, TermDocumentPostings | None] = {}

    @property
    def doc_terms(self) -> _ShardDocTerms:
        # Made on access: a stored view would be a reference cycle that
        # keeps the base index alive until the cyclic collector runs.
        return _ShardDocTerms(self)

    # -- range-restricted postings (what execution scans) -----------------

    def _bounds(self, doc_ids: np.ndarray) -> tuple[int, int]:
        a = int(np.searchsorted(doc_ids, self.lo, side="left"))
        b = int(np.searchsorted(doc_ids, self.hi, side="left"))
        return a, b

    def postings(self, term: str) -> PositionPostings:
        cached = self._pos_cache.get(term)
        if cached is not None:
            return cached
        base = self.base.postings(term)
        a, b = self._bounds(base.doc_ids)
        if a == b:
            sliced = EMPTY_POSTINGS
        else:
            sliced = PositionPostings(base.doc_ids[a:b], base.offsets[a:b])
        self._pos_cache[term] = sliced
        return sliced

    def _doc_postings(self, term: str) -> TermDocumentPostings | None:
        if term in self._doc_cache:
            return self._doc_cache[term]
        base = self.base.doc_terms.get(term)
        if base is None:
            sliced = None
        else:
            a, b = self._bounds(base.doc_ids)
            sliced = TermDocumentPostings(base.doc_ids[a:b], base.counts[a:b])
        self._doc_cache[term] = sliced
        return sliced

    @property
    def doc_range(self) -> tuple[int, int]:
        """``[lo, hi)``: the doc ids this shard's postings hold."""
        return self.lo, self.hi

    def contains_term(self, term: str) -> bool:
        """True when ``term`` occurs in at least one document of this
        shard's range — the partition-pruning probe (O(log n), no slice
        materialized)."""
        doc_ids = self.base.postings(term).doc_ids
        a = int(np.searchsorted(doc_ids, self.lo, side="left"))
        return a < len(doc_ids) and int(doc_ids[a]) < self.hi

    # -- global statistics (what scoring consults) -------------------------
    #
    # Everything below answers from the *base* index: a shard that sliced
    # these would change idf-style weights and break the exact-merge
    # guarantee.

    @property
    def stats(self) -> CollectionStats:
        return self.base.stats

    @property
    def terms(self) -> Mapping[str, PositionPostings]:
        return self.base.terms

    def sentence_starts_of(self, doc_id: int) -> tuple[int, ...]:
        return self.base.sentence_starts_of(doc_id)

    def document_frequency(self, term: str) -> int:
        return self.base.document_frequency(term)

    def term_frequency(self, doc_id: int, term: str) -> int:
        return self.base.term_frequency(doc_id, term)

    def total_positions(self, term: str) -> int:
        return self.base.total_positions(term)

    @property
    def num_docs(self) -> int:
        return self.base.num_docs

    def vocabulary_size(self) -> int:
        return self.base.vocabulary_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardView({self.shard_id}: [{self.lo}, {self.hi}))"


class ShardedIndex:
    """A base index partitioned into ``num_shards`` contiguous doc ranges.

    Ranges tile ``[0, num_docs)`` evenly (sizes differ by at most one
    document), so shard doc sets are disjoint and their union is the
    whole collection — the precondition for the rank-preserving merge.
    """

    def __init__(self, base: PackedIndex, num_shards: int):
        if not isinstance(num_shards, int) or isinstance(num_shards, bool) or num_shards < 1:
            raise GraftError(
                f"num_shards must be a positive integer, got {num_shards!r}"
            )
        self.base = base
        self.num_shards = num_shards
        n = base.num_docs
        self.shards: list[ShardView] = [
            ShardView(base, i, (i * n) // num_shards, ((i + 1) * n) // num_shards)
            for i in range(num_shards)
        ]

    def shard_of(self, doc_id: int) -> ShardView:
        """The shard whose range contains ``doc_id``."""
        i = bisect_left([s.hi for s in self.shards], doc_id + 1)
        if i >= len(self.shards):
            raise GraftError(
                f"doc_id {doc_id} outside the sharded range "
                f"[0, {self.base.num_docs})"
            )
        return self.shards[i]

    def live_shards(self, required_terms) -> list[ShardView]:
        """Shards that can possibly produce a match: partition pruning.

        A shard is skipped when any *required* keyword (one every match
        of the plan needs; see
        :func:`repro.exec.parallel.required_keywords`) has zero postings
        inside the shard's doc range — such a shard's plan output is
        provably empty, so not running it changes nothing.
        """
        required = list(required_terms)
        if not required:
            return list(self.shards)
        return [
            s
            for s in self.shards
            if all(s.contains_term(t) for t in required)
        ]
