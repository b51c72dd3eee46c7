"""One array build from documents.

:func:`repro.index.builder.flatten` is the only way documents become an
index: :func:`pack_documents` writes the packed blob from its arrays,
which is what a checkpoint does, and :func:`build_index` serves that
blob.  So the two must agree with each other byte for byte, and the
served index must agree with the plain per-document definition of an
inverted index.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.packed
import repro.index.store.store
from repro.api import SearchEngine
from repro.corpus.analyzer import SentenceAnalyzer
from repro.corpus.collection import DocumentCollection
from repro.errors import IndexError_
from repro.index.builder import build_index, flatten
from repro.index.packed import PackedIndex, pack_documents, pack_index
from repro.index.store import INDEX_FILE, IndexStore

from tests.conftest import assert_index_matches_documents

# Repeats and non-ASCII on purpose; "" is a term too.
_WORDS = ("a", "b", "fox", "Zürich", "日本", "λ", "ß", "")

corpora = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_WORDS), max_size=12),
        st.lists(st.integers(0, 20), max_size=4),
    ),
    max_size=6,
)


def collection_of(corpus) -> DocumentCollection:
    collection = DocumentCollection()
    for tokens, sentences in corpus:
        collection.add_tokens(tokens, sentence_starts=tuple(sorted(set(sentences))))
    return collection


@settings(max_examples=60, deadline=None)
@given(corpus=corpora)
def test_pack_documents_is_pack_of_the_built_index(corpus):
    collection = collection_of(corpus)
    assert pack_documents(collection) == pack_index(build_index(collection))


@settings(max_examples=60, deadline=None)
@given(corpus=corpora)
def test_built_index_matches_the_per_document_reference(corpus):
    collection = collection_of(corpus)
    assert_index_matches_documents(build_index(collection), collection)


def test_edges_pack_alike():
    """The empty collection, empty documents, analyzer-made sentence
    starts, and non-ASCII repeated terms."""
    empty = DocumentCollection()
    assert pack_documents(empty) == pack_index(build_index(empty))
    assert PackedIndex(pack_documents(empty), verify=True).num_docs == 0

    collection = DocumentCollection(SentenceAnalyzer())
    collection.add_text("Zürich is here. The fox ran! Did it? 日本 λ λ ß.")
    collection.add_text("")
    collection.add_text("Another one. And again again again.")
    assert any(len(doc.sentence_starts) > 1 for doc in collection)
    blob = pack_documents(collection)
    assert blob == pack_index(build_index(collection))
    packed = PackedIndex(blob, verify=True)
    for doc in collection:
        assert packed.sentence_starts_of(doc.doc_id) == doc.sentence_starts


@settings(max_examples=15, deadline=None)
@given(corpus=corpora)
def test_reloaded_engine_serves_the_bytes_of_its_documents(corpus, tmp_path_factory):
    """An engine saves from its documents; reloaded, it serves exactly
    that blob, which is also the pack of the index built in memory."""
    collection = collection_of(corpus)
    directory = tmp_path_factory.mktemp("store")
    SearchEngine(collection).save(directory)
    restored = SearchEngine.load(directory)
    assert isinstance(restored.index, PackedIndex)
    assert pack_index(restored.index) == pack_documents(collection)
    assert pack_index(restored.index) == pack_index(build_index(collection))


def test_checkpoint_serves_the_index_it_wrote(tmp_path, monkeypatch):
    """A checkpoint packs the documents once: the engine then serves the
    bytes of the generation's ``index.pk``, and its next search packs
    nothing.  So does the first checkpoint of a fresh store."""

    def refuse(documents):
        raise AssertionError("the documents were packed again")

    def served(engine, generation) -> list[int]:
        written = (tmp_path / "s" / generation / INDEX_FILE).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(repro.index.packed, "pack_documents", refuse)
            patch.setattr(repro.index.store.store, "pack_documents", refuse)
            assert engine.index.blob == written
            return [r.doc_id for r in engine.search("quick dog")]

    texts = ["the quick brown fox", "a lazy dog", "quick quick dog", ""]
    with SearchEngine.open(tmp_path / "s") as engine:
        assert served(engine, engine.loaded_generation) == []
        engine.add_many(texts)
        generation = engine.checkpoint()
        assert served(engine, generation) == [2]
        assert IndexStore.open(tmp_path / "s").read_file(INDEX_FILE) == \
            engine.index.blob == pack_documents(engine.collection)


def test_sentence_offset_beyond_uint32_is_a_typed_error(tmp_path):
    collection = DocumentCollection()
    collection.add_tokens(["a", "b"], sentence_starts=(0, 2**32))
    with pytest.raises(IndexError_, match="sentence offsets"):
        build_index(collection)
    with pytest.raises(IndexError_, match="sentence offsets"):
        pack_documents(collection)
    with pytest.raises(IndexError_, match="sentence offsets"):
        SearchEngine(collection).save(tmp_path / "s")
    assert not (tmp_path / "s" / "MANIFEST").exists()


def test_flatten_arrays_are_term_sorted():
    flat = flatten(collection_of([(["b", "a", "b"], []), (["a"], [])]))
    assert flat.terms == ["a", "b"]
    assert flat.doc_bounds.tolist() == [0, 2, 3]
    assert flat.doc_ids.tolist() == [0, 1, 0]
    assert flat.counts.tolist() == [1, 1, 2]
    assert flat.positions.tolist() == [1, 0, 0, 2]
    assert flat.doc_lengths.tolist() == [3, 1]
