"""CLI tests (invoked in-process)."""

import pytest

from repro.cli import main


@pytest.fixture
def docs_dir(tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    (d / "wine.txt").write_text(
        "wine is a free software windows emulator for unix"
    )
    (d / "emulator.txt").write_text(
        "an emulator lets one computer behave like another computer"
    )
    (d / "glass.txt").write_text(
        "a window is an opening in a wall fitted with glass"
    )
    return d


@pytest.fixture
def index_dir(docs_dir, tmp_path):
    out = tmp_path / "idx"
    assert main(["index", str(docs_dir), str(out)]) == 0
    return out


def test_index_reports_counts(docs_dir, tmp_path, capsys):
    main(["index", str(docs_dir), str(tmp_path / 'i')])
    out = capsys.readouterr().out
    assert "indexed 3 documents" in out


def test_index_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["index", str(empty), str(tmp_path / "i")]) == 1
    assert "no .txt files" in capsys.readouterr().err


def test_search_ranks_and_titles(index_dir, capsys):
    assert main(["search", str(index_dir), "windows emulator"]) == 0
    out = capsys.readouterr().out
    assert "wine" in out
    assert out.strip().startswith("1.")


def test_search_phrase(index_dir, capsys):
    assert main(["search", str(index_dir), '"free software"']) == 0
    out = capsys.readouterr().out
    assert "wine" in out and "glass" not in out


def test_search_no_matches(index_dir, capsys):
    assert main(["search", str(index_dir), "zebra"]) == 0
    assert "no matches" in capsys.readouterr().out


def test_search_with_scheme_and_topk(index_dir, capsys):
    assert main([
        "search", str(index_dir), "emulator", "--scheme", "meansum",
        "--top-k", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1


def test_search_unknown_scheme_errors(index_dir, capsys):
    assert main(["search", str(index_dir), "emulator", "--scheme", "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_search_bad_query_errors(index_dir, capsys):
    assert main(["search", str(index_dir), "(unbalanced"]) == 2
    assert "error:" in capsys.readouterr().err


def test_explain_shows_plan(index_dir, capsys):
    assert main(["explain", str(index_dir), "windows emulator",
                 "--scheme", "anysum"]) == 0
    out = capsys.readouterr().out
    assert "scheme: anysum" in out
    assert "alternate-elimination" in out
    assert "delta[doc]" in out


def test_explain_canonical(index_dir, capsys):
    assert main(["explain", str(index_dir), "windows emulator",
                 "--no-optimize"]) == 0
    out = capsys.readouterr().out
    assert "rewrites: none" in out
    assert "tau[" in out


def test_schemes_lists_all(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("anysum", "meansum", "bestsum-mindist", "lucene"):
        assert name in out
    assert "constant" in out
    assert "positional" in out


def test_search_max_rows_error_mode(index_dir, capsys):
    assert main(["search", str(index_dir), "windows emulator",
                 "--max-rows", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_search_max_rows_partial_mode(index_dir, capsys):
    assert main(["search", str(index_dir), "windows emulator",
                 "--max-rows", "1", "--on-limit", "partial"]) == 0
    captured = capsys.readouterr()
    assert "partial results" in captured.err
    assert "max_rows" in captured.err


def test_search_generous_limits_match_unrestricted(index_dir, capsys):
    assert main(["search", str(index_dir), "windows emulator"]) == 0
    unrestricted = capsys.readouterr().out
    assert main(["search", str(index_dir), "windows emulator",
                 "--timeout-ms", "60000", "--max-rows", "1000000",
                 "--max-matches-per-doc", "1000000"]) == 0
    governed = capsys.readouterr()
    assert governed.out == unrestricted
    assert "partial" not in governed.err


def test_search_invalid_limit_flag_errors(index_dir, capsys):
    assert main(["search", str(index_dir), "emulator",
                 "--timeout-ms", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_index_with_sentences_enables_samesentence(tmp_path, capsys):
    docs = tmp_path / "sdocs"
    docs.mkdir()
    (docs / "a.txt").write_text("the fox runs fast. the dog sleeps here.")
    (docs / "b.txt").write_text("the fox chases the dog around the yard.")
    out = tmp_path / "sidx"
    assert main(["index", str(docs), str(out), "--sentences"]) == 0
    capsys.readouterr()
    assert main(["search", str(out), "(fox dog)SAMESENTENCE"]) == 0
    text = capsys.readouterr().out
    # Only b.txt holds fox and dog in one sentence.
    assert "[1] b" in text and "[0] a" not in text


class TestStoreCommands:
    def test_index_writes_a_store(self, index_dir):
        from repro.index.store import IndexStore

        assert IndexStore.is_store(index_dir)

    def test_verify_clean_store(self, index_dir, capsys):
        assert main(["verify", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "store OK" in out
        assert "sha256 verified" in out

    def test_verify_corrupt_store_names_the_file(self, index_dir, capsys):
        target = next(index_dir.glob("gen-*/index.pk"))
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        assert main(["verify", str(index_dir)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(target) in err
        assert main(["search", str(index_dir), "emulator"]) == 2
        assert str(target) in capsys.readouterr().err

    def test_search_corrupt_store_is_a_typed_error(self, index_dir, capsys):
        (index_dir / "MANIFEST").write_bytes(b"garbage")
        assert main(["search", str(index_dir), "emulator"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_compacts_wal(self, index_dir, capsys):
        from repro.api import SearchEngine

        with SearchEngine.open(index_dir) as engine:
            engine.add("a fresh walled document about emulators")
        capsys.readouterr()
        assert main(["checkpoint", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "checkpointed 4 documents" in out
        assert (index_dir / "wal.jsonl").stat().st_size == 0

    def test_search_warns_about_pending_wal_documents(self, index_dir, capsys):
        from repro.api import SearchEngine

        with SearchEngine.open(index_dir) as engine:
            engine.add("pending wal document")
        capsys.readouterr()
        assert main(["search", str(index_dir), "emulator"]) == 0
        assert "not yet checkpointed" in capsys.readouterr().err


class TestOlderLayoutsCli:
    """Layouts without ``index.pk`` are read through their documents
    file; a directory with nothing to read is a typed error, exit 2."""

    @pytest.fixture
    def collection(self, docs_dir):
        from repro.corpus.collection import DocumentCollection

        collection = DocumentCollection()
        for path in sorted(docs_dir.glob("*.txt")):
            collection.add_text(path.read_text(), title=path.stem)
        return collection

    @pytest.fixture
    def pre_store_dir(self, collection, tmp_path):
        """A pre-store directory: ``documents.jsonl`` beside whatever
        index files an old version wrote (nothing reads those)."""
        from repro.corpus.io import save_collection

        out = save_collection(collection, tmp_path / "v1idx")
        (out / "meta.json").write_text("{}")
        (out / "postings.npz").write_bytes(b"old")
        return out

    def test_search_reads_a_pre_store_directory(self, pre_store_dir, capsys):
        assert main(["search", str(pre_store_dir), "windows emulator"]) == 0
        assert "wine" in capsys.readouterr().out
        assert main(["explain", str(pre_store_dir), "windows emulator"]) == 0

    def test_verify_needs_a_store(self, pre_store_dir, capsys):
        assert main(["verify", str(pre_store_dir)]) == 2
        err = capsys.readouterr().err
        assert "repro index" in err and str(pre_store_dir) in err

    @pytest.mark.parametrize("command", ["search", "explain"])
    def test_directory_with_nothing_to_read_exits_2(
        self, command, tmp_path, capsys
    ):
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / "postings.npz").write_bytes(b"old")
        assert main([command, str(tmp_path / "junk"), "emulator"]) == 2
        err = capsys.readouterr().err
        assert "repro index" in err and str(tmp_path / "junk") in err

    def test_generation_without_index_file_is_reindexed(
        self, collection, tmp_path, capsys
    ):
        from tests.conftest import write_old_generation

        write_old_generation(tmp_path / "old", collection)
        assert main(["search", str(tmp_path / "old"), "windows emulator"]) == 0
        assert "wine" in capsys.readouterr().out
        assert main(["verify", str(tmp_path / "old")]) == 0
        assert main(["checkpoint", str(tmp_path / "old")]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "old"), "--json"]) == 0
        import json

        files = json.loads(capsys.readouterr().out)["files"]
        assert sorted(files) == ["documents.jsonl", "index.pk", "titles.json"]

    def test_missing_titles_warns_instead_of_silent(
        self, collection, tmp_path, capsys
    ):
        from repro.index.builder import build_index
        from repro.index.store import TITLES_FILE, IndexStore, engine_payload

        payload = engine_payload(build_index(collection), collection)
        del payload[TITLES_FILE]
        store = IndexStore(tmp_path / "untitled")
        with store.lock():
            store.checkpoint(payload, doc_count=len(collection))
        assert main(
            ["search", str(tmp_path / "untitled"), "windows emulator"]
        ) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "titles.json" in captured.err
        # Results still print, with the doc-id fallback title.
        assert captured.out.strip().startswith("1.")
        assert "doc2" in captured.out


def test_index_without_sentences_uses_fallback(tmp_path, capsys):
    docs = tmp_path / "pdocs"
    docs.mkdir()
    (docs / "a.txt").write_text("the fox runs fast. the dog sleeps here.")
    out = tmp_path / "pidx"
    assert main(["index", str(docs), str(out)]) == 0
    capsys.readouterr()
    assert main(["search", str(out), "(fox dog)SAMESENTENCE"]) == 0
    # Fixed-span fallback (20 tokens): the whole document is one bucket.
    assert "[0] a" in capsys.readouterr().out
