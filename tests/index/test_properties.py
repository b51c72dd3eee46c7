"""Property-based tests on the index data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.collection import DocumentCollection
from repro.exec.engine import make_runtime
from repro.exec.scan_ops import AtomScanOp, PreCountScanOp, ScoredPreCountScanOp
from repro.index.builder import build_index
from repro.index.packed import PackedIndex, pack_documents
from repro.index.postings import PositionPostings
from repro.sa.registry import get_scheme

from tests.conftest import assert_index_matches_documents, reference_index

documents = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=15),
    min_size=0,
    max_size=8,
)


def collection_of(docs):
    col = DocumentCollection()
    for tokens in docs:
        col.add_tokens(tokens)
    return col


@settings(max_examples=60, deadline=None)
@given(docs=documents)
def test_index_agrees_with_documents(docs):
    """Every statistic the index reports must equal recounting the
    documents directly."""
    col = collection_of(docs)
    index = build_index(col)
    vocabulary = col.vocabulary()
    assert set(index.terms) == vocabulary
    for term in vocabulary:
        postings = index.postings(term)
        containing = [d for d in col if d.term_frequency(term)]
        assert list(postings.doc_ids) == [d.doc_id for d in containing]
        for doc in containing:
            assert list(postings.positions_in(doc.doc_id)) == \
                doc.positions_of(term)
        assert postings.total_positions == sum(
            d.term_frequency(term) for d in col
        )


@settings(max_examples=60, deadline=None)
@given(docs=documents, targets=st.lists(st.integers(0, 10), max_size=5))
def test_seek_index_is_lower_bound(docs, targets):
    """Every leaf operator's ``seek_doc``, over the position and the
    term-document postings, lands on the first document >= the target."""
    col = collection_of(docs)
    runtime = make_runtime(build_index(col), get_scheme("sumbest"), None)
    for term, by_doc in reference_index(col).items():
        ids = sorted(by_doc)
        for target in targets:
            want = next((d for d in ids if d >= target), None)
            for leaf in (AtomScanOp, PreCountScanOp, ScoredPreCountScanOp):
                op = leaf(runtime, "p", term)
                op.seek_doc(target)
                group = op.next_doc()
                assert (None if group is None else group[0]) == want


@settings(max_examples=40, deadline=None)
@given(docs=documents)
def test_doc_id_list_matches_array(docs):
    index = build_index(collection_of(docs))
    for postings in index.terms.values():
        assert postings.doc_id_list == [int(d) for d in postings.doc_ids]


@settings(max_examples=25, deadline=None)
@given(docs=documents)
def test_packed_round_trip_any_corpus(docs):
    col = collection_of(docs)
    loaded = PackedIndex(pack_documents(col), verify=True)
    assert_index_matches_documents(loaded, col)


@settings(max_examples=60, deadline=None)
@given(
    by_doc=st.dictionaries(
        st.integers(0, 50),
        st.lists(st.integers(0, 100), min_size=1, max_size=5),
        max_size=8,
    )
)
def test_postings_from_dict_normalizes(by_doc):
    postings = PositionPostings.from_dict(by_doc)
    ids = list(postings.doc_ids)
    assert ids == sorted(by_doc)
    for doc, offsets in zip(ids, postings.offsets):
        assert list(offsets) == sorted(by_doc[doc])
    assert postings.document_frequency == len(by_doc)


@settings(max_examples=60, deadline=None)
@given(docs=documents)
def test_term_document_counts_consistent(docs):
    col = collection_of(docs)
    index = build_index(col)
    for term, by_doc in reference_index(col).items():
        doc_postings = index.doc_terms.get(term)
        positions = index.postings(term)
        assert list(doc_postings.doc_ids) == sorted(by_doc)
        assert [int(c) for c in doc_postings.counts] == \
            [len(o) for o in positions.offsets]
        assert int(doc_postings.counts.sum()) == positions.total_positions \
            == sum(map(len, by_doc.values()))
