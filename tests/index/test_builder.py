"""Index builder tests."""

import pytest

from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.errors import IndexError_
from repro.index.builder import build_index
from repro.index.packed import pack_documents

from tests.conftest import reference_index


def test_build_from_collection(tiny_collection):
    index = build_index(tiny_collection)
    assert index.num_docs == len(tiny_collection)
    # 'fox' occurs in docs 0, 1, 3, 4, 6 of the tiny collection.
    assert index.document_frequency("fox") == 5


def test_positions_recorded(tiny_collection):
    index = build_index(tiny_collection)
    doc0 = tiny_collection[0]
    assert list(index.postings("quick").positions_in(0)) == doc0.positions_of("quick")


def test_term_frequency_matches_documents(tiny_collection):
    index = build_index(tiny_collection)
    for doc in tiny_collection:
        for term in set(doc.tokens):
            assert index.term_frequency(doc.doc_id, term) == doc.term_frequency(term)


def test_unknown_term_has_empty_postings(tiny_index):
    assert tiny_index.document_frequency("qzxv") == 0
    assert tiny_index.postings("qzxv").positions_in(0) == ()


def test_doc_lengths(tiny_collection, tiny_index):
    for doc in tiny_collection:
        assert tiny_index.stats.doc_length(doc.doc_id) == doc.length


def test_avg_doc_length(tiny_collection, tiny_index):
    expect = tiny_collection.total_tokens / len(tiny_collection)
    assert tiny_index.stats.avg_doc_length == pytest.approx(expect)


def test_out_of_order_ids_rejected():
    """A document's id is its position: anything but 0, 1, 2, ... is
    refused, not silently renumbered."""
    for ids in ((3,), (0, 2), (1, 0), (0, 0)):
        documents = [Document(doc_id, ("a",)) for doc_id in ids]
        for build in (build_index, pack_documents):
            with pytest.raises(IndexError_, match="dense id order"):
                build(documents)


def test_term_document_index_is_logical_subset(tiny_collection, tiny_index):
    """The term-document view holds one (doc, #INDOC) entry per document
    of the term-position view, as the documents define them."""
    for term, by_doc in reference_index(tiny_collection).items():
        docs = tiny_index.doc_terms.get(term)
        postings = tiny_index.postings(term)
        assert docs.doc_ids is postings.doc_ids
        assert list(docs.doc_ids) == sorted(by_doc)
        assert list(docs.counts) == [len(by_doc[d]) for d in sorted(by_doc)]


def test_single_position_entries_share_one_tuple_per_offset(tiny_index):
    shared: dict[int, tuple[int]] = {}
    for term in tiny_index.terms:
        for run in tiny_index.postings(term).offsets:
            if len(run) == 1:
                assert shared.setdefault(run[0], run) is run
    assert shared


def test_empty_collection_index():
    index = build_index(DocumentCollection())
    assert index.num_docs == 0
    assert index.stats.avg_doc_length == 0.0
