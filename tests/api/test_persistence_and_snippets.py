"""Engine persistence and hit-highlighting helpers."""

import pytest

from repro.api import SearchEngine
from repro.corpus.io import load_collection, save_collection
from repro.errors import IndexError_

from tests.conftest import (
    ENGINE_KINDS,
    SCHEME_NAMES,
    TINY_QUERIES,
    engine_as,
    make_tiny_collection,
)


class TestCollectionIO:
    def test_round_trip(self, tmp_path, tiny_collection):
        save_collection(tiny_collection, tmp_path)
        loaded = load_collection(tmp_path)
        assert len(loaded) == len(tiny_collection)
        for a, b in zip(loaded, tiny_collection):
            assert a.tokens == b.tokens
            assert a.title == b.title

    def test_sentence_starts_survive(self, tmp_path):
        from repro.corpus.analyzer import SentenceAnalyzer
        from repro.corpus.collection import DocumentCollection

        col = DocumentCollection(analyzer=SentenceAnalyzer())
        col.add_text("one sentence here. another one there.")
        save_collection(col, tmp_path)
        loaded = load_collection(tmp_path)
        assert loaded[0].sentence_starts == col[0].sentence_starts

    def test_missing_raises(self, tmp_path):
        with pytest.raises(IndexError_):
            load_collection(tmp_path / "none")


class TestEngineSaveLoad:
    def test_identical_results_after_reload(self, tmp_path):
        engine = SearchEngine(make_tiny_collection())
        before = engine.search('quick (fox | "lazy dog")', scheme="meansum")
        engine.save(tmp_path / "engine")
        restored = SearchEngine.load(tmp_path / "engine")
        after = restored.search('quick (fox | "lazy dog")', scheme="meansum")
        assert [(r.doc_id, r.score, r.title) for r in before] == \
            [(r.doc_id, r.score, r.title) for r in after]

    def test_loaded_engine_can_keep_indexing(self, tmp_path):
        engine = SearchEngine(make_tiny_collection())
        engine.save(tmp_path / "engine")
        restored = SearchEngine.load(tmp_path / "engine")
        restored.add("a brand new fox appears")
        results = restored.search("fox")
        assert len(results) == len(engine.search("fox")) + 1


def _answers(engine, **kwargs):
    return {
        (scheme, text): [
            (r.doc_id, r.score)
            for r in engine.search(text, scheme=scheme, **kwargs)
        ]
        for scheme in SCHEME_NAMES
        for text in TINY_QUERIES
    }


class TestOneIndexFormat:
    """in-memory ≡ saved-and-loaded ≡ process-sharded-over-loaded: the
    loaded engine serves the generation's packed blob as it is, and
    checkpoints and worker pools are handed those same bytes."""

    @pytest.fixture
    def store(self, tmp_path):
        SearchEngine(make_tiny_collection()).save(tmp_path / "engine")
        return tmp_path / "engine"

    def test_loaded_engine_serves_the_packed_blob(self, store):
        from repro.index.packed import PackedIndex

        loaded = SearchEngine.load(store)
        assert isinstance(loaded.index, PackedIndex)
        blob = next(store.glob("gen-*/index.pk")).read_bytes()
        assert loaded.index.blob == blob
        assert _answers(loaded) == _answers(
            SearchEngine(make_tiny_collection())
        )

    def test_every_read_surface_agrees_after_reload(self, store):
        memory = SearchEngine(make_tiny_collection())
        loaded = SearchEngine.load(store)
        for text in TINY_QUERIES:
            for kwargs in ({"optimize": False},
                           {"scheme": "anysum", "top_k": 3}):
                assert [(r.doc_id, r.score)
                        for r in loaded.search(text, **kwargs)] == \
                    [(r.doc_id, r.score)
                     for r in memory.search(text, **kwargs)]
            assert loaded.match_table(text).rows == \
                memory.match_table(text).rows
            assert loaded.explain(text) == memory.explain(text)
            for doc_id in range(len(memory.collection)):
                assert loaded.matches(text, doc_id) == \
                    memory.matches(text, doc_id)
                assert loaded.snippet(text, doc_id) == \
                    memory.snippet(text, doc_id)
        assert "-- analyze" in loaded.explain("quick fox", analyze=True)

    def test_strict_audit_over_a_loaded_engine(self, store):
        from repro.obs.audit import AuditConfig

        loaded = SearchEngine.load(store)
        audited = SearchEngine(
            loaded.collection, audit=AuditConfig(rate=1.0, mode="strict")
        )
        audited._index = loaded.index
        assert _answers(audited) == _answers(loaded)

    def test_process_shards_over_a_loaded_engine(self, store):
        """The pool publishes the loaded bytes; nothing is repacked (a
        packed index has no ``sentence_starts`` list to repack from)."""
        serial = _answers(SearchEngine(make_tiny_collection()))
        loaded = SearchEngine.load(store)
        loaded.shards = 2
        loaded.executor = "process"
        try:
            outcome = loaded.search("quick fox")
            assert outcome.executor == "process"
            assert _answers(loaded) == serial
            assert loaded._procpool.publication.size == \
                len(loaded.index.blob)
        finally:
            loaded.close()

    def test_checkpoints_without_an_add_write_identical_bytes(self, store):
        def index_bytes():
            (path,) = store.glob("gen-*/index.pk")
            return path.name, path.read_bytes()

        first = index_bytes()
        with SearchEngine.open(store) as engine:
            engine.checkpoint()
            second = index_bytes()
            engine.checkpoint()
            assert first == second == index_bytes()
            engine.add("one more quick fox")
            engine.checkpoint()
            rebuilt = index_bytes()
            assert rebuilt != first
            engine.checkpoint()
            assert rebuilt == index_bytes()

    def test_index_file_opens_through_mmap(self, store):
        import mmap

        from repro.index.packed import PackedIndex

        (path,) = store.glob("gen-*/index.pk")
        with open(path, "rb") as handle:
            # Not closed by hand: the mapping lives as long as the
            # zero-copy views the index hands out.
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        engine = SearchEngine(make_tiny_collection())
        engine._index = PackedIndex(mapped, verify=True, source=str(path))
        assert _answers(engine) == _answers(
            SearchEngine(make_tiny_collection())
        )


class TestDurableOpen:
    """Engine-level surface of the crash-safe store (details in
    tests/index/test_store.py and test_store_faults.py)."""

    def test_open_add_survives_without_explicit_save(self, tmp_path):
        with SearchEngine.open(tmp_path / "engine") as engine:
            engine.add("a wal protected fox", title="walled")
        restored = SearchEngine.load(tmp_path / "engine")
        assert [r.title for r in restored.search("fox")] == ["walled"]

    def test_save_then_open_then_checkpoint_round_trip(self, tmp_path):
        engine = SearchEngine(make_tiny_collection())
        engine.save(tmp_path / "engine")
        with SearchEngine.open(tmp_path / "engine") as writer:
            writer.add("a brand new fox appears")
            writer.checkpoint()
        restored = SearchEngine.load(tmp_path / "engine")
        assert len(restored.search("fox")) == \
            len(engine.search("fox")) + 1

    def test_store_path_property(self, tmp_path):
        engine = SearchEngine()
        assert engine.store_path is None
        with SearchEngine.open(tmp_path / "engine") as opened:
            assert opened.store_path == tmp_path / "engine"


class TestMatchesAndSnippets:
    @pytest.fixture(params=ENGINE_KINDS)
    def engine(self, request, tmp_path):
        return engine_as(
            request.param, SearchEngine(make_tiny_collection()), tmp_path
        )

    def test_matches_maps_variables_to_offsets(self, engine):
        (match,) = engine.matches('"quick fox"', doc_id=4, limit=1)
        assert match == {"p0": 0, "p1": 1}

    def test_matches_limit(self, engine):
        # Doc 4 has 2x2 quick/fox combinations.
        found = engine.matches("quick fox", doc_id=4, limit=3)
        assert len(found) == 3

    def test_matches_absent_document(self, engine):
        assert engine.matches("quick fox", doc_id=5) == []

    def test_matches_report_empty_cells(self, engine):
        found = engine.matches("quick (fox | terrier)", doc_id=0, limit=10)
        assert any(m["p2"] is None for m in found)

    def test_snippet_shows_context(self, engine):
        text = engine.snippet("lazy dog", doc_id=0)
        assert "lazy" in text and "dog" in text

    def test_snippet_empty_for_non_matching_doc(self, engine):
        assert engine.snippet("zebra", doc_id=0) == ""
