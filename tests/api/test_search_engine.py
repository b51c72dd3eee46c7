"""SearchEngine facade tests."""

import pytest

from repro.api import SearchEngine
from repro.errors import GraftError
from repro.graft.optimizer import OptimizerOptions
from repro.sa.registry import get_scheme

from tests.conftest import ENGINE_KINDS, engine_as, make_tiny_collection


@pytest.fixture(params=ENGINE_KINDS)
def engine(request, tmp_path):
    return engine_as(
        request.param, SearchEngine(make_tiny_collection()), tmp_path
    )


def test_docstring_example():
    e = SearchEngine()
    e.add("a quick brown fox")
    e.add("the fox jumped over the quick dog")
    results = e.search('"quick brown fox"', scheme="sumbest")
    assert [r.doc_id for r in results] == [0]


def test_results_ranked_descending(engine):
    out = engine.search("quick fox", scheme="sumbest")
    scores = [r.score for r in out]
    assert scores == sorted(scores, reverse=True)


def test_results_carry_titles():
    e = SearchEngine()
    e.add("quick fox", title="alpha")
    (result,) = e.search("fox").results
    assert result.title == "alpha"


def test_top_k_truncates(engine):
    full = engine.search("quick fox")
    top = engine.search("quick fox", top_k=2)
    assert len(top) == 2
    assert [r.doc_id for r in top] == [r.doc_id for r in full][:2]


def test_scheme_by_instance(engine):
    by_name = engine.search("quick fox", scheme="meansum")
    by_instance = engine.search("quick fox", scheme=get_scheme("meansum"))
    assert [(r.doc_id, r.score) for r in by_name] == \
        [(r.doc_id, r.score) for r in by_instance]


def test_unknown_scheme_rejected(engine):
    from repro.errors import UnknownSchemeError

    with pytest.raises(UnknownSchemeError):
        engine.search("fox", scheme="nope")


def test_bad_query_type_rejected(engine):
    with pytest.raises(GraftError):
        engine.search(42)


def test_optimized_and_canonical_agree(engine):
    a = engine.search("quick (fox | dog)", scheme="meansum", optimize=True)
    b = engine.search("quick (fox | dog)", scheme="meansum", optimize=False)
    assert [(r.doc_id, pytest.approx(r.score)) for r in a] == \
        [(r.doc_id, r.score) for r in b]
    assert b.applied_optimizations == []


def test_index_rebuilt_after_mutation():
    e = SearchEngine()
    e.add("quick fox")
    assert len(e.search("fox")) == 1
    e.add("another fox here")
    assert len(e.search("fox")) == 2


def test_outcome_is_sequence(engine):
    out = engine.search("fox")
    assert len(out) == len(out.results)
    assert out[0] == out.results[0]
    assert list(iter(out)) == out.results


def test_match_table_materialization(engine):
    table = engine.match_table("quick fox")
    assert table.columns == ("p0", "p1")
    assert 0 in table.documents()
    # Doc 4 has 2 quick x 2 fox = 4 matches.
    assert len(table.for_document(4)) == 4


def test_explain_shows_scheme_and_rewrites(engine):
    text = engine.explain("quick fox", scheme="anysum")
    assert "anysum" in text
    assert "alternate-elimination" in text
    assert "delta[doc]" in text


def test_explain_canonical(engine):
    text = engine.explain("quick fox", scheme="anysum", optimize=False)
    assert "rewrites: none" in text
    assert "tau[" in text


def test_optimizer_options_forwarded(engine):
    out = engine.search(
        "quick fox",
        scheme="anysum",
        options=OptimizerOptions(pre_counting=False),
    )
    assert "pre-counting" not in out.applied_optimizations


def test_metrics_exposed(engine):
    out = engine.search("quick fox", scheme="bestsum-mindist")
    assert out.metrics.positions_scanned > 0


def test_parse_uses_collection_analyzer():
    e = SearchEngine()
    e.add("Quick FOX")
    q = e.parse("QUICK")
    assert q.keywords == ("quick",)


def test_empty_result_for_unmatched_query(engine):
    assert len(engine.search("zebra")) == 0


# -- input validation and bulk ingestion ------------------------------------


@pytest.mark.parametrize("bad", [0, -1, -100, 2.5, True, "3"])
def test_invalid_top_k_rejected(engine, bad):
    with pytest.raises(GraftError):
        engine.search("quick fox", top_k=bad)


def test_top_k_one_returns_single_best(engine):
    full = engine.search("quick fox")
    out = engine.search("quick fox", top_k=1)
    assert [(r.doc_id, r.score) for r in out] == [
        (full[0].doc_id, full[0].score)
    ]


def test_add_many_returns_assigned_ids():
    e = SearchEngine()
    first = e.add("a lone seed document")
    ids = e.add_many(["quick fox", "lazy dog", "quick dog"])
    assert ids == [first + 1, first + 2, first + 3]
    assert {r.doc_id for r in e.search("quick")} == {ids[0], ids[2]}


def test_add_many_accepts_any_iterable():
    e = SearchEngine()
    ids = e.add_many(f"document number {i}" for i in range(5))
    assert ids == [0, 1, 2, 3, 4]
    assert len(e.collection) == 5


@pytest.mark.parametrize("bad_id", [-1, 99, "0", 1.0, None])
def test_matches_out_of_range_doc_id_rejected(engine, bad_id):
    with pytest.raises(GraftError) as info:
        engine.matches("quick fox", bad_id)
    msg = str(info.value)
    assert "doc_id" in msg
    if isinstance(bad_id, int):
        # The message names the offending id and the collection size.
        assert str(bad_id) in msg and str(len(engine.collection)) in msg


def test_snippet_out_of_range_doc_id_rejected(engine):
    with pytest.raises(GraftError) as info:
        engine.snippet("quick fox", len(engine.collection))
    assert "doc_id" in str(info.value)
