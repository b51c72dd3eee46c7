"""Crash-safety sweep: every injected crash point must leave a loadable,
consistent store; every flipped byte must be caught as corruption.

The sweep discovers the full ordered schedule of crash points (each
write, fsync, rename, append, truncate and removal) by running the
scenario once with a recording injector, then re-runs the scenario from
scratch once per point with the injector set to 'die' exactly there —
before any in-process cleanup, like a power loss.  After each simulated
crash:

* ``SearchEngine.load`` must succeed (a reader never needs repair), and
  the visible documents must be a *prefix* of the writes issued — the
  old state or the new state, never a blend, and never losing a
  document whose ``add`` had returned;
* re-opening for writing must repair crash residue (torn WAL tail,
  stale generations) and pass a full ``verify()``; and
* the store must then accept new writes and checkpoints normally.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile

import pytest

from repro.api import SearchEngine
from repro.errors import IndexCorruptionError
from repro.index.store import (
    DOCS_FILE,
    INDEX_FILE,
    LOCK_NAME,
    MANIFEST_NAME,
    TITLES_FILE,
    WAL_NAME,
    IndexStore,
    SimulatedCrash,
    StoreFaultInjector,
)

BASE_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
]
MUTATE_TEXTS = [
    "wal durable document four arrives",
    "post checkpoint document five lands",
]
ALL_TEXTS = BASE_TEXTS + MUTATE_TEXTS


def build_base(root: pathlib.Path) -> None:
    """A store with a checkpointed generation plus one pending WAL doc."""
    with SearchEngine.open(root) as engine:
        engine.add(BASE_TEXTS[0], title="doc0")
        engine.add(BASE_TEXTS[1], title="doc1")
        engine.checkpoint()
        engine.add(BASE_TEXTS[2], title="doc2")


def mutate(root: pathlib.Path, inj: StoreFaultInjector) -> None:
    """The faulted phase: WAL append, checkpoint, WAL append."""
    engine = SearchEngine.open(root, faults=inj)
    engine.add(MUTATE_TEXTS[0], title="doc3")
    engine.checkpoint()
    engine.add(MUTATE_TEXTS[1], title="doc4")
    engine.close()


def discover_schedule() -> list[tuple[str, int]]:
    """Run the scenario unfaulted, recording (point, occurrence) pairs."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="graft-store-sweep-"))
    try:
        root = tmp / "store"
        build_base(root)
        recorder = StoreFaultInjector()
        mutate(root, recorder)
        seen: dict[str, int] = {}
        schedule = []
        for point in recorder.points:
            seen[point] = seen.get(point, 0) + 1
            schedule.append((point, seen[point]))
        return schedule
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


SCHEDULE = discover_schedule()


def doc_texts(engine: SearchEngine) -> list[str]:
    return [" ".join(doc.tokens) for doc in engine.collection]


def test_schedule_covers_every_step_kind():
    kinds = {point.split(":", 1)[0] for point, _ in SCHEDULE}
    assert kinds == {"before", "mid", "after"}
    ops = {point.split(":")[1] for point, _ in SCHEDULE}
    assert {"write", "fsync", "fsyncdir", "rename", "append",
            "truncate"} <= ops
    names = {point for point, _ in SCHEDULE}
    assert any(MANIFEST_NAME in n and "rename" in n for n in names)
    assert any(f"mid:append:{WAL_NAME}" == n for n in names)


@pytest.mark.parametrize(
    "point,occurrence",
    SCHEDULE,
    ids=[f"{p}#{k}" for p, k in SCHEDULE],
)
def test_every_crash_point_leaves_consistent_state(tmp_path, point, occurrence):
    root = tmp_path / "store"
    build_base(root)
    inj = StoreFaultInjector(crash_at=point, crash_on_hit=occurrence)
    with pytest.raises(SimulatedCrash):
        mutate(root, inj)
    assert inj.fired, "the targeted crash point was never reached"
    # The 'process' died: its advisory lock is stale (same pid is still
    # alive in this test process, so break it by hand).
    (root / LOCK_NAME).unlink(missing_ok=True)

    # 1. A reader sees a consistent prefix of the issued writes, with
    #    nothing whose add() had returned lost: the base checkpoint and
    #    the base WAL doc must always survive.
    loaded = SearchEngine.load(root)
    texts = doc_texts(loaded)
    assert texts == ALL_TEXTS[: len(texts)]
    assert len(texts) >= len(BASE_TEXTS)
    assert all(r.doc_id < len(texts) for r in loaded.search("quick fox"))

    # 2. A writer repairs residue and passes a full integrity audit.
    with SearchEngine.open(root) as engine:
        assert doc_texts(engine) == texts
        engine.add("recovery write after the crash", title="recovered")
        engine.checkpoint()
    report = IndexStore.open(root).verify()
    assert report["wal_torn_bytes"] == 0
    assert report["doc_count"] == len(texts) + 1

    # 3. And the store keeps working end to end.
    final = SearchEngine.load(root)
    assert doc_texts(final) == texts + ["recovery write after the crash"]


def initial_open_schedule() -> list[tuple[str, int]]:
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="graft-store-init-"))
    try:
        recorder = StoreFaultInjector()
        SearchEngine.open(tmp / "store", faults=recorder).close()
        seen: dict[str, int] = {}
        out = []
        for point in recorder.points:
            seen[point] = seen.get(point, 0) + 1
            out.append((point, seen[point]))
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


INIT_SCHEDULE = initial_open_schedule()


@pytest.mark.parametrize(
    "point,occurrence",
    INIT_SCHEDULE,
    ids=[f"{p}#{k}" for p, k in INIT_SCHEDULE],
)
def test_crash_during_store_initialization_is_retryable(
    tmp_path, point, occurrence
):
    root = tmp_path / "store"
    inj = StoreFaultInjector(crash_at=point, crash_on_hit=occurrence)
    with pytest.raises(SimulatedCrash):
        SearchEngine.open(root, faults=inj)
    (root / LOCK_NAME).unlink(missing_ok=True)
    with SearchEngine.open(root) as engine:
        engine.add("survived initialization crash")
    assert len(SearchEngine.load(root).collection) == 1


class TestFlippedBytes:
    """Any single flipped byte in any store file is typed corruption."""

    @pytest.fixture
    def store_root(self, tmp_path):
        root = tmp_path / "store"
        build_base(root)
        return root

    #: Every file a store holds; the flip matrix covers each by name.
    FILES = (MANIFEST_NAME, WAL_NAME, INDEX_FILE, DOCS_FILE, TITLES_FILE)

    def store_file(self, root, name) -> pathlib.Path:
        store = IndexStore.open(root)
        if name in store.manifest.files:
            return store.generation_dir / name
        return root / name

    def test_matrix_covers_every_generation_file(self, store_root):
        listed = set(IndexStore.open(store_root).manifest.files)
        assert listed == set(self.FILES) - {MANIFEST_NAME, WAL_NAME}

    @pytest.mark.parametrize("name", FILES)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_flip_is_caught_and_names_the_file(self, store_root, name, where):
        target = self.store_file(store_root, name)
        data = bytearray(target.read_bytes())
        assert data, f"{target} unexpectedly empty"
        offset = {"first": 0, "middle": len(data) // 2,
                  "last": len(data) - 1}[where]
        data[offset] ^= 0x01
        target.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptionError) as info:
            SearchEngine.load(store_root)
        assert str(target) in str(info.value)

    def test_intact_checksum_over_a_damaged_blob_is_still_caught(
        self, store_root
    ):
        """The SHA-256 proves the file is what the writer wrote; the
        packed blob's own structure and frame checksums are checked on
        top, at load and by ``verify`` — both name ``index.pk``."""
        from repro.index.store import engine_payload

        engine = SearchEngine.load(store_root)
        payload = engine_payload(engine.index, engine.collection)
        blob = bytearray(payload[INDEX_FILE])
        blob[-1] ^= 0x01  # the last frame's CRC: only the full sweep sees it
        for damaged in (bytes(blob), bytes(blob[:40]), b"", b"not a blob"):
            store = IndexStore.open(store_root)
            with store.lock():
                store.checkpoint(
                    {**payload, INDEX_FILE: damaged},
                    doc_count=len(engine.collection),
                )
            path = str(store.generation_dir / INDEX_FILE)
            for read in (lambda: SearchEngine.load(store_root),
                         lambda: IndexStore.open(store_root).verify(),
                         lambda: IndexStore.open(store_root).load_index()):
                with pytest.raises(IndexCorruptionError) as info:
                    read()
                assert path in str(info.value)

    def test_flip_in_wal_payload_never_silently_truncates(self, store_root):
        # The dangerous spot: the *length field* of the *last* record.
        # Without a header checksum this flip would read as a torn tail
        # and be dropped silently; it must raise instead.
        wal_path = IndexStore.open(store_root).wal_path
        data = bytearray(wal_path.read_bytes())
        data[8] = ord("f")  # force a huge declared payload length
        wal_path.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptionError, match="header checksum"):
            SearchEngine.load(store_root)
