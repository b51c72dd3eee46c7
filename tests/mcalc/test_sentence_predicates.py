"""SAMESENTENCE with real indexed sentence boundaries (Section 8's
suggested extension)."""

import pytest

from repro.corpus.analyzer import SentenceAnalyzer
from repro.corpus.collection import DocumentCollection
from repro.exec.engine import execute, make_runtime
from repro.graft.optimizer import Optimizer
from repro.index.builder import build_index
from repro.mcalc.oracle import document_matches
from repro.mcalc.parser import parse_query
from repro.mcalc.predicates import get_predicate
from repro.sa.reference import rank_with_oracle
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from tests.conftest import assert_same_ranking


@pytest.fixture
def sentence_collection():
    col = DocumentCollection(analyzer=SentenceAnalyzer())
    col.add_text("the quick fox runs. the dog sleeps in the sun.")
    col.add_text("the quick dog barks at the fox! nothing else happens.")
    col.add_text("quick quick quick. fox fox. dog.")
    return col


class TestAnalyzer:
    def test_sentence_starts_recorded(self, sentence_collection):
        doc = sentence_collection[0]
        assert doc.sentence_starts == (0, 4)
        assert doc.tokens[:4] == ("the", "quick", "fox", "runs")

    def test_empty_sentences_skipped(self):
        analyzer = SentenceAnalyzer()
        analyzed = analyzer.analyze("one. ... two!")
        assert analyzed.sentence_starts == (0, 1)

    def test_sentence_of(self, sentence_collection):
        doc = sentence_collection[0]
        assert doc.sentence_of(0) == 0
        assert doc.sentence_of(3) == 0
        assert doc.sentence_of(4) == 1
        assert doc.sentence_of(9) == 1

    def test_document_without_boundaries_is_one_sentence(self):
        from repro.corpus.document import Document

        doc = Document(0, ("a", "b"))
        assert doc.sentence_of(1) == 0


class TestIndexStorage:
    def test_index_records_sentence_starts(self, sentence_collection):
        index = build_index(sentence_collection)
        assert index.sentence_starts_of(0) == (0, 4)
        assert index.sentence_starts_of(99) == ()

    def test_packed_blob_round_trips_sentence_starts(self, sentence_collection):
        from repro.index.packed import PackedIndex, pack_index

        index = build_index(sentence_collection)
        loaded = PackedIndex(pack_index(index), verify=True)
        assert [
            loaded.sentence_starts_of(doc.doc_id)
            for doc in sentence_collection
        ] == [doc.sentence_starts for doc in sentence_collection]
        assert loaded.sentence_starts_of(99) == ()


class TestPredicate:
    def test_structural_evaluation_uses_boundaries(self):
        impl = get_predicate("SAMESENTENCE")
        # Positions 2 and 5 with a boundary at 4: different sentences.
        assert not impl.holds([2, 5], (), sentence_starts=(0, 4))
        assert impl.holds([2, 3], (), sentence_starts=(0, 4))

    def test_fallback_without_boundaries(self):
        impl = get_predicate("SAMESENTENCE")
        assert impl.holds([2, 5], ())          # same fixed-span bucket
        assert not impl.holds([19, 21], ())    # straddles bucket boundary

    def test_oracle_consults_document_boundaries(self, sentence_collection):
        q = parse_query("(quick fox)SAMESENTENCE")
        # Doc 0: quick@1 fox@2 in sentence 0 -> match.
        assert document_matches(q, sentence_collection[0]) == [(0, 1, 2)]
        # Doc 1: quick@1 (sentence 0), fox@6 (sentence 0 ends at 7?) --
        # 'the quick dog barks at the fox' is one sentence: match.
        assert document_matches(q, sentence_collection[1]) == [(1, 1, 6)]
        # Doc 2: 'quick's in sentence 0, 'fox's in sentence 1 -> no match.
        assert document_matches(q, sentence_collection[2]) == []

    def test_engine_matches_oracle(self, sentence_collection):
        index = build_index(sentence_collection)
        ctx = IndexScoringContext(index)
        scheme = get_scheme("meansum")
        q = parse_query("(quick fox)SAMESENTENCE")
        res = Optimizer(scheme, index).optimize(q)
        got = execute(res.plan, make_runtime(index, scheme, res.info, ctx))
        want = rank_with_oracle(scheme, ctx, q, sentence_collection)
        assert_same_ranking(got, want)
        assert {d for d, _ in got} == {0, 1}

    def test_boundaries_change_results_vs_fallback(self, sentence_collection):
        """The same query gives different answers with real boundaries
        than under the fixed-span fallback — the structure matters."""
        index = build_index(sentence_collection)
        scheme = get_scheme("sumbest")
        q = parse_query("(fox dog)SAMESENTENCE")
        res = Optimizer(scheme, index).optimize(q)
        got = execute(res.plan, make_runtime(index, scheme, res.info))
        # Real boundaries: only doc 1 ('the quick dog barks at the fox')
        # holds fox and dog in one sentence.  The 20-token fallback would
        # have matched all three documents.
        assert [d for d, _ in got] == [1]
