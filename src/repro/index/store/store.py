"""The crash-safe generational index store.

On-disk layout (format 2)::

    store_dir/
      MANIFEST            # self-checksummed pointer: generation, digests,
                          # WAL replay watermark (atomic-rename swapped)
      LOCK                # advisory writer lock (transient)
      wal.jsonl           # framed document WAL (see repro.index.store.wal)
      gen-000001/         # stale generation, removed by GC
      gen-000002/         # current generation (named by MANIFEST)
        index.pk          # the packed index blob (repro.index.packed)
        documents.jsonl   # analyzed collection (one JSON object per line)
        titles.json       # document titles (CLI display)

The documents file is the source of truth and ``index.pk`` a cache of
it: the blob is what readers serve from and what worker processes map,
and a generation written before that file existed is opened by
re-indexing its documents (:meth:`IndexStore.load_index`); the next
checkpoint writes the layout above.

Write protocol (:meth:`IndexStore.checkpoint`): materialize every file
of the next generation inside ``gen-N.tmp/`` (fsync each), fsync the
temp directory, rename it to ``gen-N``, fsync the store directory, then
write ``MANIFEST.tmp`` and atomically rename it over ``MANIFEST``.  The
manifest rename is the *only* step with externally visible effect, so a
crash at any point leaves either the previous manifest (pointing at the
intact previous generation plus a still-valid WAL) or the new one —
never a blend.  After the swap the WAL is reset and stale generations
are garbage-collected; both steps are crash-safe because replay skips
records below the manifest's ``doc_count`` watermark and GC is re-run on
every open.

Read protocol: verify the manifest's self-checksum, then verify the
SHA-256 of every referenced file before decoding anything.  Any
mismatch, missing file, or structural inconsistency raises
:class:`repro.errors.IndexCorruptionError` naming the damaged path.
"""

from __future__ import annotations

import json
import pathlib
import threading

from repro.corpus.io import collection_from_bytes, collection_to_bytes
from repro.errors import IndexCorruptionError, IndexError_
from repro.index.builder import build_index
from repro.index.packed import PackedIndex, pack_documents
from repro.index.store import fsio, wal
from repro.index.store.faults import StoreFaultInjector
from repro.index.store.lock import LOCK_NAME, StoreLock
from repro.index.store.manifest import (
    MANIFEST_NAME,
    Manifest,
    decode_manifest,
    encode_manifest,
    sha256_hex,
)
from repro.obs.metrics import (
    checkpoint_seconds,
    corruption_detected,
    store_checkpoints,
)


def _corruption(*args, **kwargs) -> IndexCorruptionError:
    """Count the detection, then build the error (every corruption the
    store finds passes through here so the metrics registry sees it)."""
    corruption_detected().child().inc()
    return IndexCorruptionError(*args, **kwargs)


GEN_PREFIX = "gen-"
WAL_NAME = "wal.jsonl"

# -- generation pins --------------------------------------------------------
#
# The async query service keeps readers on an immutable generation while
# a writer checkpoints the next one; GC must not delete a generation a
# live reader still references.  Pins are refcounts keyed by (resolved
# store path, generation name) in a process-wide registry, so the
# reader-side and writer-side IndexStore instances — distinct objects on
# the same directory — see one another's pins.  A crashed process takes
# its pins with it, which is safe: GC re-runs on every open and the
# pinned generation was only protection for *in-process* readers.

_PINS: dict[tuple[str, str], int] = {}
_PINS_LOCK = threading.Lock()


def _pin_key(path: pathlib.Path, generation: str) -> tuple[str, str]:
    return (str(path.resolve()), generation)


def pinned_generations(path: pathlib.Path) -> set[str]:
    """Generation names currently pinned under ``path`` (refcount > 0)."""
    resolved = str(path.resolve())
    with _PINS_LOCK:
        return {gen for (p, gen), n in _PINS.items() if p == resolved and n > 0}

INDEX_FILE = "index.pk"
DOCS_FILE = "documents.jsonl"
TITLES_FILE = "titles.json"


class IndexStore:
    """One durable store directory: generations, manifest, WAL, lock."""

    def __init__(
        self,
        directory: str | pathlib.Path,
        faults: StoreFaultInjector | None = None,
    ):
        self.path = pathlib.Path(directory)
        self.faults = faults
        self.manifest: Manifest | None = None

    # -- opening -----------------------------------------------------------

    @staticmethod
    def is_store(directory: str | pathlib.Path) -> bool:
        """True when ``directory`` holds a format-2 store."""
        return (pathlib.Path(directory) / MANIFEST_NAME).exists()

    @classmethod
    def open(
        cls,
        directory: str | pathlib.Path,
        faults: StoreFaultInjector | None = None,
    ) -> "IndexStore":
        """Open an existing store (manifest required and verified)."""
        store = cls(directory, faults=faults)
        store.read_manifest()
        return store

    def read_manifest(self) -> Manifest:
        manifest_path = self.path / MANIFEST_NAME
        try:
            data = manifest_path.read_bytes()
        except FileNotFoundError:
            raise IndexError_(
                f"no index store under {self.path} (no {MANIFEST_NAME}); "
                f"build one with 'repro index DOCS_DIR {self.path}'"
            ) from None
        self.manifest = decode_manifest(data, source=str(manifest_path))
        return self.manifest

    def _require_manifest(self) -> Manifest:
        if self.manifest is None:
            self.read_manifest()
        return self.manifest

    # -- reading -----------------------------------------------------------

    @property
    def generation_dir(self) -> pathlib.Path:
        return self.path / self._require_manifest().generation

    @property
    def wal_path(self) -> pathlib.Path:
        return self.path / self._require_manifest().wal

    def has_file(self, name: str) -> bool:
        return name in self._require_manifest().files

    def read_file(self, name: str) -> bytes:
        """Read one generation file, verifying its recorded digest."""
        manifest = self._require_manifest()
        file_path = self.generation_dir / name
        entry = manifest.files.get(name)
        if entry is None:
            raise _corruption(
                "file is not listed in the manifest", path=str(file_path)
            )
        try:
            data = file_path.read_bytes()
        except FileNotFoundError:
            raise _corruption(
                "generation file named by the manifest is missing",
                path=str(file_path),
            ) from None
        if sha256_hex(data) != entry["sha256"]:
            raise _corruption(
                "checksum mismatch (expected sha256 "
                f"{entry['sha256'][:12]}..., file has "
                f"{sha256_hex(data)[:12]}...)",
                path=str(file_path),
            )
        return data

    def read_all_verified(self) -> dict[str, bytes]:
        """Read and checksum-verify every file the manifest lists."""
        return {name: self.read_file(name)
                for name in sorted(self._require_manifest().files)}

    def load_index(
        self, blobs: dict[str, bytes] | None = None
    ) -> PackedIndex:
        """The current generation's index, over verified bytes.

        ``blobs`` are files already read through :meth:`read_file`.  The
        packed blob is opened with its full checksum sweep and served as
        it is.  A generation without ``index.pk`` (written before the
        blob was the store's index file) is re-indexed from its
        documents file, the source of truth.
        """
        if self.has_file(INDEX_FILE):
            name = INDEX_FILE
        elif self.has_file(DOCS_FILE):
            name = DOCS_FILE
        else:
            raise IndexError_(
                f"{self.generation_dir} holds neither {INDEX_FILE} nor "
                f"{DOCS_FILE}; rebuild the store with 'repro index'"
            )
        data = blobs[name] if blobs is not None else self.read_file(name)
        source = str(self.generation_dir / name)
        if name == INDEX_FILE:
            return PackedIndex(data, verify=True, source=source)
        return build_index(collection_from_bytes(data, source=source))

    # -- WAL ---------------------------------------------------------------

    def wal_records(self) -> list[dict]:
        """Complete WAL records past the checkpoint watermark, in order.

        A torn tail is ignored (the write it belonged to never
        completed); corruption raises.  Records already incorporated in
        the current generation (``seq < doc_count``) are skipped, which
        is what makes a crash between manifest swap and WAL reset
        harmless.
        """
        manifest = self._require_manifest()
        records, _valid, _total = wal.read_wal(self.wal_path)
        live = [r for r in records if r.get("seq", 0) >= manifest.doc_count]
        expected = manifest.doc_count
        for record in live:
            if record.get("seq") != expected:
                raise _corruption(
                    f"WAL sequence gap: expected seq {expected}, found "
                    f"{record.get('seq')!r}",
                    path=str(self.wal_path),
                )
            expected += 1
        return live

    def repair_wal(self) -> int:
        """Truncate a torn trailing record; returns bytes removed."""
        return wal.repair_torn_tail(
            self.wal_path, inj=self.faults, rel=self._require_manifest().wal
        )

    def append_wal(self, record: dict) -> None:
        """Durably append one document record to the WAL."""
        manifest = self._require_manifest()
        wal.append_record(
            self.wal_path, record, inj=self.faults, rel=manifest.wal
        )

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, files: dict[str, bytes], doc_count: int) -> str:
        """Atomically install a new generation holding ``files``.

        Returns the new generation name.  Crash-safe at every step: the
        previous state stays loadable until the manifest rename, the new
        one after it.
        """
        with checkpoint_seconds().child().time():
            gen = self._checkpoint(files, doc_count)
        store_checkpoints().child().inc()
        return gen

    def _checkpoint(self, files: dict[str, bytes], doc_count: int) -> str:
        inj = self.faults
        current = self.manifest.generation_number if self.manifest else 0
        gen = f"{GEN_PREFIX}{current + 1:06d}"
        self.path.mkdir(parents=True, exist_ok=True)
        tmp = self.path / f"{gen}.tmp"
        # Leftovers of a previous crashed checkpoint: the temp dir, or a
        # fully-renamed generation no manifest ever came to reference.
        # Removing them precedes any of this checkpoint's writes, so it
        # is not itself a crash point.
        if tmp.exists():
            fsio.remove_entry(tmp, rel=f"{gen}.tmp")
        if (self.path / gen).exists():
            fsio.remove_entry(self.path / gen, rel=gen)
        tmp.mkdir()

        digests: dict[str, dict] = {}
        for name in sorted(files):
            data = files[name]
            fsio.write_file(tmp / name, data, inj=inj, rel=f"{gen}/{name}")
            digests[name] = {"sha256": sha256_hex(data), "size": len(data)}
        fsio.fsync_dir(tmp, inj=inj, rel=f"{gen}.tmp")
        fsio.atomic_rename(tmp, self.path / gen, inj=inj, rel=gen)
        fsio.fsync_dir(self.path, inj=inj, rel=".")

        manifest = Manifest(
            generation=gen,
            doc_count=doc_count,
            files=digests,
            wal=self.manifest.wal if self.manifest else WAL_NAME,
        )
        manifest_tmp = self.path / (MANIFEST_NAME + ".tmp")
        fsio.write_file(
            manifest_tmp, encode_manifest(manifest), inj=inj,
            rel=MANIFEST_NAME + ".tmp",
        )
        fsio.atomic_rename(
            manifest_tmp, self.path / MANIFEST_NAME, inj=inj,
            rel=MANIFEST_NAME,
        )
        fsio.fsync_dir(self.path, inj=inj, rel=".")
        self.manifest = manifest

        # The swap is done: everything below is cleanup that recovery
        # re-does on open, so a crash here loses nothing.
        wal_file = self.wal_path
        if wal_file.exists():
            fsio.truncate_file(wal_file, 0, inj=inj, rel=manifest.wal)
        self.gc()
        return gen

    # -- generation pinning ------------------------------------------------

    def pin_generation(self, generation: str | None = None) -> str:
        """Pin a generation against GC; returns the pinned name.

        Defaults to the manifest's current generation.  Pins nest
        (refcounted) and are process-wide, so a reader pinning through
        one :class:`IndexStore` instance protects the generation from a
        writer GC'ing through another instance on the same directory.
        """
        if generation is None:
            generation = self._require_manifest().generation
        with _PINS_LOCK:
            key = _pin_key(self.path, generation)
            _PINS[key] = _PINS.get(key, 0) + 1
        return generation

    def release_generation(self, generation: str) -> None:
        """Drop one pin on ``generation`` (no-op when not pinned)."""
        with _PINS_LOCK:
            key = _pin_key(self.path, generation)
            count = _PINS.get(key, 0)
            if count <= 1:
                _PINS.pop(key, None)
            else:
                _PINS[key] = count - 1

    def gc(self) -> list[str]:
        """Remove generations and temp files the manifest doesn't name.

        Pinned generations (live in-process readers) are kept even when
        the manifest has moved past them; they are collected by the next
        GC after the last pin is released.
        """
        manifest = self._require_manifest()
        keep = {manifest.generation, manifest.wal, MANIFEST_NAME, LOCK_NAME}
        keep |= pinned_generations(self.path)
        removed = []
        for entry in sorted(self.path.iterdir()):
            name = entry.name
            if name in keep:
                continue
            if name.startswith(GEN_PREFIX) or name == MANIFEST_NAME + ".tmp":
                fsio.remove_entry(entry, inj=self.faults, rel=name)
                removed.append(name)
        return removed

    # -- verification ------------------------------------------------------

    def verify(self) -> dict:
        """Full integrity audit; raises on any damage, returns a report.

        Checks the manifest self-checksum, every generation file's
        SHA-256 and size, the packed index's structure and frame
        checksums, and every complete WAL frame.  A torn WAL tail is reported, not an error —
        it is the expected residue of a crash mid-append.
        """
        manifest = self.read_manifest()
        blobs = self.read_all_verified()
        for name, data in blobs.items():
            if len(data) != manifest.files[name].get("size", len(data)):
                raise _corruption(
                    "size mismatch against manifest",
                    path=str(self.generation_dir / name),
                )
        if INDEX_FILE in blobs:
            self.load_index(blobs)
        records, valid, total = wal.read_wal(self.wal_path)
        live = self.wal_records()
        return {
            "generation": manifest.generation,
            "doc_count": manifest.doc_count,
            "files": {name: len(data) for name, data in blobs.items()},
            "wal_records": len(records),
            "wal_pending": len(live),
            "wal_torn_bytes": total - valid,
        }

    # -- locking -----------------------------------------------------------

    def lock(self) -> StoreLock:
        """A writer lock for this store directory (not yet acquired)."""
        self.path.mkdir(parents=True, exist_ok=True)
        return StoreLock(self.path)


def engine_payload(
    index: PackedIndex | None, collection
) -> dict[str, bytes]:
    """Serialize an engine's state as checkpoint files.

    ``index`` is what the engine holds: its own bytes are written, and
    ``None`` (nothing built since the last change) packs ``collection``
    from its documents — the bytes :func:`build_index` would serve.
    """
    titles = json.dumps([doc.title for doc in collection]).encode("utf-8")
    return {
        INDEX_FILE: (
            pack_documents(collection) if index is None else index.blob
        ),
        DOCS_FILE: collection_to_bytes(collection),
        TITLES_FILE: titles,
    }
