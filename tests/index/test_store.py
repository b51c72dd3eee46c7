"""Durable store behavior: checkpoints, WAL, locking, GC, older layouts."""

from __future__ import annotations

import json
import os

import pytest

from repro.api import SearchEngine
from repro.corpus.io import save_collection
from repro.errors import (
    GraftError,
    IndexCorruptionError,
    IndexError_,
    StoreLockedError,
)
from repro.index.packed import PackedIndex
from repro.index.store import (
    DOCS_FILE,
    INDEX_FILE,
    LOCK_NAME,
    MANIFEST_NAME,
    TITLES_FILE,
    WAL_NAME,
    IndexStore,
)
from repro.index.store import wal as wal_mod

from tests.conftest import (
    OLD_INDEX_FILES,
    assert_index_matches_documents,
    make_tiny_collection,
    write_old_generation,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
]


def make_store(path, n_docs=2):
    engine = SearchEngine()
    for text in TEXTS[:n_docs]:
        engine.add(text, title=f"doc{len(engine.collection)}")
    engine.save(path)
    return engine


def ranked(engine, query="quick fox"):
    return [(r.doc_id, r.score) for r in engine.search(query)]


class TestCheckpoint:
    def test_save_creates_manifest_and_generation(self, tmp_path):
        make_store(tmp_path / "s")
        store = IndexStore.open(tmp_path / "s")
        assert store.manifest.generation == "gen-000001"
        assert store.manifest.doc_count == 2
        assert set(store.manifest.files) == {
            INDEX_FILE, DOCS_FILE, TITLES_FILE,
        }

    def test_second_save_advances_generation_and_gcs(self, tmp_path):
        engine = make_store(tmp_path / "s")
        engine.add(TEXTS[2])
        engine.save(tmp_path / "s")
        store = IndexStore.open(tmp_path / "s")
        assert store.manifest.generation == "gen-000002"
        names = {p.name for p in (tmp_path / "s").iterdir()}
        assert "gen-000001" not in names
        assert "gen-000002" in names

    def test_results_identical_after_reload(self, tmp_path):
        engine = SearchEngine(make_tiny_collection())
        before = ranked(engine)
        engine.save(tmp_path / "s")
        assert ranked(SearchEngine.load(tmp_path / "s")) == before

    def test_checkpoint_without_store_raises(self):
        with pytest.raises(GraftError, match="opened on a store"):
            SearchEngine().checkpoint()

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(IndexError_):
            SearchEngine.load(tmp_path / "nope")

    def test_stale_tmp_generation_is_cleaned(self, tmp_path):
        make_store(tmp_path / "s")
        stale = tmp_path / "s" / "gen-000099.tmp"
        stale.mkdir()
        (stale / "junk").write_text("x")
        with SearchEngine.open(tmp_path / "s"):
            pass
        assert not stale.exists()


class TestWal:
    def test_add_is_durable_without_checkpoint(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            engine.add(TEXTS[2], title="walled")
        # A fresh read-only load replays the WAL.
        loaded = SearchEngine.load(tmp_path / "s")
        assert len(loaded.collection) == 3
        assert loaded.collection[2].title == "walled"
        assert any(r.doc_id == 2 for r in loaded.search("terrier"))

    def test_checkpoint_resets_wal(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            engine.add(TEXTS[2])
            assert (tmp_path / "s" / WAL_NAME).stat().st_size > 0
            engine.checkpoint()
            assert (tmp_path / "s" / WAL_NAME).stat().st_size == 0
        store = IndexStore.open(tmp_path / "s")
        assert store.manifest.doc_count == 3

    def test_stale_records_below_watermark_are_skipped(self, tmp_path):
        # Simulate a crash between manifest swap and WAL reset: the log
        # still holds records already inside the current generation.
        make_store(tmp_path / "s", n_docs=2)
        store = IndexStore.open(tmp_path / "s")
        wal_mod.append_record(
            store.wal_path,
            {"seq": 0, "title": "stale", "tokens": ["dup"],
             "sentence_starts": []},
        )
        wal_mod.append_record(
            store.wal_path,
            {"seq": 1, "title": "stale", "tokens": ["dup"],
             "sentence_starts": []},
        )
        loaded = SearchEngine.load(tmp_path / "s")
        assert len(loaded.collection) == 2
        assert loaded.collection[0].title != "stale"

    def test_torn_tail_ignored_by_reader_and_repaired_by_writer(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            engine.add(TEXTS[2], title="kept")
        wal_path = tmp_path / "s" / WAL_NAME
        frame = wal_mod.encode_record(
            {"seq": 3, "title": "torn", "tokens": ["lost"],
             "sentence_starts": []}
        )
        with open(wal_path, "ab") as out:
            out.write(frame[: len(frame) // 2])
        # Reader: complete records replayed, torn tail ignored.
        loaded = SearchEngine.load(tmp_path / "s")
        assert len(loaded.collection) == 3
        # Writer: tail physically truncated, then appends work again.
        with SearchEngine.open(tmp_path / "s") as engine:
            assert len(engine.collection) == 3
            engine.add("fresh addition after repair")
        assert len(SearchEngine.load(tmp_path / "s").collection) == 4

    def test_wal_sequence_gap_is_corruption(self, tmp_path):
        make_store(tmp_path / "s", n_docs=2)
        store = IndexStore.open(tmp_path / "s")
        wal_mod.append_record(
            store.wal_path,
            {"seq": 5, "title": "", "tokens": ["gap"], "sentence_starts": []},
        )
        with pytest.raises(IndexCorruptionError, match="sequence gap"):
            SearchEngine.load(tmp_path / "s")

    def test_mid_wal_corruption_raises_not_truncates(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            engine.add(TEXTS[2])
            engine.add("one more document here")
        wal_path = tmp_path / "s" / WAL_NAME
        data = bytearray(wal_path.read_bytes())
        data[30] ^= 0xFF  # inside the first record, not the tail
        wal_path.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptionError, match=WAL_NAME):
            SearchEngine.load(tmp_path / "s")


class TestLocking:
    def test_second_writer_rejected(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s"):
            with pytest.raises(StoreLockedError) as info:
                SearchEngine.open(tmp_path / "s")
            assert info.value.holder is not None
            assert str(os.getpid()) in info.value.holder

    def test_lock_released_on_close(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s"):
            assert (tmp_path / "s" / LOCK_NAME).exists()
        assert not (tmp_path / "s" / LOCK_NAME).exists()
        with SearchEngine.open(tmp_path / "s"):
            pass

    def test_stale_lock_from_dead_pid_is_broken(self, tmp_path):
        import socket

        make_store(tmp_path / "s")
        # PIDs wrap well below 2**22 on Linux; this one cannot be alive.
        (tmp_path / "s" / LOCK_NAME).write_text(
            f"999999999@{socket.gethostname()}"
        )
        with SearchEngine.open(tmp_path / "s") as engine:
            assert len(engine.collection) == 2

    def test_foreign_host_lock_is_respected(self, tmp_path):
        make_store(tmp_path / "s")
        (tmp_path / "s" / LOCK_NAME).write_text("1234@another-host")
        with pytest.raises(StoreLockedError):
            SearchEngine.open(tmp_path / "s")

    def test_readers_ignore_the_lock(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s"):
            loaded = SearchEngine.load(tmp_path / "s")
            assert len(loaded.collection) == 2


class TestVerify:
    def test_clean_store_verifies(self, tmp_path):
        make_store(tmp_path / "s")
        report = IndexStore.open(tmp_path / "s").verify()
        assert report["generation"] == "gen-000001"
        assert report["doc_count"] == 2
        assert report["wal_torn_bytes"] == 0

    def test_verify_counts_pending_wal_records(self, tmp_path):
        make_store(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            engine.add(TEXTS[2])
        report = IndexStore.open(tmp_path / "s").verify()
        assert report["wal_pending"] == 1

    def test_missing_generation_file_is_corruption(self, tmp_path):
        make_store(tmp_path / "s")
        store = IndexStore.open(tmp_path / "s")
        (store.generation_dir / TITLES_FILE).unlink()
        with pytest.raises(IndexCorruptionError, match=TITLES_FILE):
            store.verify()

    def test_unsupported_store_format_is_typed(self, tmp_path):
        from repro.index.store.manifest import Manifest, encode_manifest

        make_store(tmp_path / "s")
        bogus = encode_manifest(
            Manifest(generation="gen-000001", doc_count=2, format=99)
        )
        (tmp_path / "s" / MANIFEST_NAME).write_bytes(bogus)
        with pytest.raises(IndexError_, match="unsupported store format"):
            SearchEngine.load(tmp_path / "s")


class TestDocumentsAreTheSourceOfTruth:
    """``index.pk`` is a cache of ``documents.jsonl``.  A layout without
    it — a generation written when the index was ``meta.json`` +
    ``postings.npz``, or a pre-store directory — opens by re-indexing
    its documents, with no decoder for the old files, and the next
    checkpoint writes the current layout."""

    def make_old_generation(self, path):
        write_old_generation(path, make_tiny_collection())

    def make_pre_store(self, path):
        save_collection(make_tiny_collection(), path)

    def test_old_generation_loads_by_reindexing(self, tmp_path):
        self.make_old_generation(tmp_path / "s")
        engine = SearchEngine.load(tmp_path / "s")
        assert engine._index is None
        assert_index_matches_documents(engine.index, make_tiny_collection())
        assert ranked(engine) == ranked(SearchEngine(make_tiny_collection()))
        # The store-level reader (what the CLI uses) follows the same rule.
        index = IndexStore.open(tmp_path / "s").load_index()
        assert index.blob == engine.index.blob
        assert set(IndexStore.open(tmp_path / "s").verify()["files"]) == {
            DOCS_FILE, TITLES_FILE, *OLD_INDEX_FILES,
        }

    def test_old_generation_upgrades_on_next_checkpoint(self, tmp_path):
        self.make_old_generation(tmp_path / "s")
        with SearchEngine.open(tmp_path / "s") as engine:
            before = ranked(engine)
            engine.checkpoint()
        store = IndexStore.open(tmp_path / "s")
        assert set(store.manifest.files) == {
            INDEX_FILE, DOCS_FILE, TITLES_FILE,
        }
        upgraded = SearchEngine.load(tmp_path / "s")
        assert isinstance(upgraded.index, PackedIndex)
        assert ranked(upgraded) == before

    def test_pre_store_directory_still_loads(self, tmp_path):
        self.make_pre_store(tmp_path / "v1")
        assert not IndexStore.is_store(tmp_path / "v1")
        engine = SearchEngine.load(tmp_path / "v1")
        assert ranked(engine) == ranked(SearchEngine(make_tiny_collection()))

    def test_open_migrates_pre_store_directory(self, tmp_path):
        self.make_pre_store(tmp_path / "v1")
        with SearchEngine.open(tmp_path / "v1") as engine:
            n = len(engine.collection)
        assert IndexStore.is_store(tmp_path / "v1")
        assert IndexStore.open(tmp_path / "v1").has_file(INDEX_FILE)
        migrated = SearchEngine.load(tmp_path / "v1")
        assert len(migrated.collection) == n
        assert ranked(migrated) == ranked(SearchEngine(make_tiny_collection()))

    def test_directory_with_neither_is_a_typed_error(self, tmp_path):
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / "meta.json").write_text("{}")
        for directory in (tmp_path / "junk", tmp_path / "absent"):
            with pytest.raises(IndexError_, match="repro index") as info:
                SearchEngine.load(directory)
            assert str(directory) in str(info.value)
        with pytest.raises(IndexError_, match="repro index"):
            IndexStore.open(tmp_path / "junk")

    def test_generation_with_neither_is_a_typed_error(self, tmp_path):
        store = IndexStore(tmp_path / "s")
        with store.lock():
            store.checkpoint(dict(OLD_INDEX_FILES), doc_count=0)
        with pytest.raises(IndexError_, match="repro index"):
            IndexStore.open(tmp_path / "s").load_index()

    def test_open_fresh_directory_initializes_empty_store(self, tmp_path):
        with SearchEngine.open(tmp_path / "new") as engine:
            assert len(engine.collection) == 0
            engine.add("first ever document")
        loaded = SearchEngine.load(tmp_path / "new")
        assert len(loaded.collection) == 1


class TestTitlesAndPayload:
    def test_titles_round_trip_through_store(self, tmp_path):
        engine = SearchEngine()
        engine.add("quick fox", title="alpha")
        engine.add("lazy dog", title="beta")
        engine.save(tmp_path / "s")
        store = IndexStore.open(tmp_path / "s")
        assert json.loads(store.read_file(TITLES_FILE)) == ["alpha", "beta"]
        loaded = SearchEngine.load(tmp_path / "s")
        assert [r.title for r in loaded.search("quick")] == ["alpha"]
