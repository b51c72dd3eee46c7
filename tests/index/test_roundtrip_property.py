"""Randomized save/load round-trip properties.

For arbitrary corpora — unicode and empty-string terms, empty and
single-document collections — a reloaded engine must return *identical*
search results (doc ids and exact float scores) under every registered
scoring scheme, through the crash-safe store; the packed blob that
store persists must reproduce every posting.  Plus deterministic edges:
offsets beyond int32, and beyond what the fixed-width layout holds.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchEngine
from repro.corpus.collection import DocumentCollection
from repro.errors import IndexError_
from repro.index.packed import PackedIndex, _pack, pack_documents
from repro.mcalc.builder import all_of, term
from repro.sa.registry import available_schemes

from tests.conftest import assert_index_matches_documents, flat_index

# Lowercase so built query terms (which .lower() their keyword) can hit.
TOKEN_ALPHABET = "abcdéλøß日本語🦊"

tokens = st.text(alphabet=TOKEN_ALPHABET, min_size=0, max_size=6)
documents = st.lists(tokens, min_size=0, max_size=10)
corpora = st.lists(documents, min_size=0, max_size=5)


def make_engine(corpus: list[list[str]]) -> SearchEngine:
    collection = DocumentCollection()
    for i, doc_tokens in enumerate(corpus):
        collection.add_tokens(doc_tokens, title=f"δoc-{i}")
    return SearchEngine(collection)


def queries_for(corpus: list[list[str]]):
    vocab = sorted({t for doc in corpus for t in doc if t})
    picks = vocab[:2] if vocab else ["absent"]
    built = [term(picks[0]).build()]
    if len(picks) > 1:
        built.append(all_of(term(picks[0]), term(picks[1])).build())
    return built


@settings(max_examples=20, deadline=None)
@given(corpus=corpora)
def test_store_round_trip_is_result_identical(corpus):
    tmp = tempfile.mkdtemp(prefix="graft-roundtrip-")
    try:
        engine = make_engine(corpus)
        engine.save(tmp + "/s")
        restored = SearchEngine.load(tmp + "/s")
        assert len(restored.collection) == len(corpus)
        for scheme in available_schemes():
            for query in queries_for(corpus):
                before = [(r.doc_id, r.score, r.title)
                          for r in engine.search(query, scheme=scheme)]
                after = [(r.doc_id, r.score, r.title)
                         for r in restored.search(query, scheme=scheme)]
                assert before == after
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=20, deadline=None)
@given(corpus=corpora)
def test_packed_round_trip_preserves_postings(corpus):
    collection = DocumentCollection()
    for doc_tokens in corpus:
        collection.add_tokens(doc_tokens)
    loaded = PackedIndex(pack_documents(collection), verify=True)
    assert_index_matches_documents(loaded, collection)


def test_empty_engine_round_trips_through_store(tmp_path):
    engine = SearchEngine()
    engine.save(tmp_path / "s")
    restored = SearchEngine.load(tmp_path / "s")
    assert len(restored.collection) == 0
    assert len(restored.search("anything")) == 0


def test_single_document_round_trip(tmp_path):
    engine = SearchEngine()
    engine.add("a single lonely document", title="only")
    engine.save(tmp_path / "s")
    restored = SearchEngine.load(tmp_path / "s")
    (result,) = restored.search("lonely")
    assert (result.doc_id, result.title) == (0, "only")


def _one_posting_blob(first: int, doc_length: int) -> bytes:
    flat = flat_index(far=[(0, (first, first + 7))])
    return _pack(flat._replace(doc_lengths=flat.doc_lengths + doc_length))


def test_offsets_beyond_int32_round_trip():
    big = 2 ** 31 + 5
    loaded = PackedIndex(_one_posting_blob(big, 2 ** 40), verify=True)
    assert list(loaded.terms["far"].offsets) == [(big, big + 7)]
    assert list(loaded.stats.doc_lengths) == [2 ** 40]


def test_offsets_beyond_uint32_are_refused_not_wrapped():
    """The fixed-width layout holds positions below 2^32; a larger one
    is a typed encode error naming the term — never a silently wrapped
    offset on disk."""
    with pytest.raises(IndexError_, match="'far'.*positions"):
        _one_posting_blob(2 ** 40, 2 ** 40 + 8)
