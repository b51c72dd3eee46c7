"""Inverted index substrate: term-position and term-document indexes.

The paper's Atomic Match Factory ``A`` abstracts a scan of the
*term-position* index (Figure 1); the Pre-Counting factory ``CA`` scans the
much smaller *term-document* index ("a logical subset of the term-position
index", Section 5.2.3).  Both scans are ordered by document id and support
seeking forward (the skip pointers that make zig-zag joins effective).
One class, :class:`PackedIndex`, holds both views of every term.
"""

from repro.index.builder import build_index
from repro.index.packed import PackedIndex
from repro.index.postings import PositionPostings
from repro.index.stats import CollectionStats

__all__ = [
    "PackedIndex",
    "build_index",
    "PositionPostings",
    "CollectionStats",
]
