"""End-to-end edge cases a downstream user will hit."""

import pytest

from repro.api import SearchEngine
from repro.errors import QuerySyntaxError

from tests.conftest import ENGINE_KINDS, engine_as


@pytest.fixture(params=ENGINE_KINDS)
def engine(request, tmp_path):
    e = SearchEngine()
    e.add("alpha beta alpha beta alpha", title="repeats")
    e.add("alpha", title="single")
    e.add("beta gamma delta epsilon zeta eta theta", title="long")
    e.add("", title="empty")
    return engine_as(request.param, e, tmp_path)


def test_empty_document_tolerated(engine):
    assert len(engine.search("alpha")) == 2


def test_repeated_keyword_in_query(engine):
    """'alpha alpha' needs two (possibly equal-position?) occurrences —
    two distinct variables over the same postings."""
    out = engine.search("alpha alpha", scheme="meansum")
    docs = [r.doc_id for r in out]
    assert set(docs) == {0, 1}
    table = engine.match_table("alpha alpha")
    # Doc 0: 3 positions -> 9 combinations; doc 1: 1 -> 1.
    assert len(table.for_document(0)) == 9
    assert len(table.for_document(1)) == 1


def test_phrase_of_identical_words(engine):
    out = engine.search('"alpha alpha"')
    assert [r.doc_id for r in out] == []  # never adjacent to itself here
    e2 = SearchEngine()
    e2.add("echo echo location")
    assert [r.doc_id for r in e2.search('"echo echo"')] == [0]


def test_window_of_one_token(engine):
    """WINDOW[1] requires identical positions — distinct keywords can
    never satisfy it."""
    assert len(engine.search("(alpha beta)WINDOW[1]")) == 0


def test_query_term_absent_from_collection(engine):
    assert len(engine.search("alpha missingword")) == 0
    assert len(engine.search("alpha | missingword")) == 2


def test_unicode_text_is_analyzed(tmp_path):
    e = SearchEngine()
    e.add("Caffè CRÈME brûlée")
    # SimpleAnalyzer splits on non-ascii-alphanumerics: accents split
    # tokens, but the engine must not crash and must match consistently.
    out = e.search("caff")
    assert [r.doc_id for r in out] == [0]


def test_very_long_phrase(engine):
    e = SearchEngine()
    e.add("one two three four five six seven eight nine ten")
    out = e.search('"three four five six seven"')
    assert [r.doc_id for r in out] == [0]


def test_whitespace_only_query_rejected(engine):
    with pytest.raises(QuerySyntaxError):
        engine.search("   ")


def test_single_document_collection():
    e = SearchEngine()
    e.add("lonely document with words")
    out = e.search("lonely words", scheme="meansum")
    assert len(out) == 1 and out[0].score > 0


def test_all_schemes_on_empty_result(engine):
    from repro.sa.registry import available_schemes

    for scheme in available_schemes():
        assert len(engine.search("qzx", scheme=scheme)) == 0


def test_large_top_k_is_safe(engine):
    assert len(engine.search("alpha", top_k=10**6)) == 2
