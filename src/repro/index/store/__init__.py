"""Crash-safe durable index store.

Atomic generational checkpoints, a checksummed manifest, a framed
document WAL with torn-tail recovery, an advisory writer lock, and a
deterministic crash-point fault-injection harness.  See
``docs/STORAGE.md`` for the on-disk format specification and
:mod:`repro.index.store.store` for the write/read protocols.

Nothing here is imported on the in-memory query path:
:mod:`repro.api` pulls this package in lazily, only when an engine is
saved to, loaded from, or opened on a directory.
"""

from repro.index.store.faults import SimulatedCrash, StoreFaultInjector
from repro.index.store.lock import LOCK_NAME, StoreLock
from repro.index.store.manifest import MANIFEST_NAME, Manifest
from repro.index.store.store import (
    DOCS_FILE,
    GEN_PREFIX,
    INDEX_FILE,
    TITLES_FILE,
    WAL_NAME,
    IndexStore,
    engine_payload,
    pinned_generations,
)

__all__ = [
    "IndexStore",
    "engine_payload",
    "pinned_generations",
    "Manifest",
    "StoreLock",
    "StoreFaultInjector",
    "SimulatedCrash",
    "MANIFEST_NAME",
    "LOCK_NAME",
    "WAL_NAME",
    "GEN_PREFIX",
    "INDEX_FILE",
    "DOCS_FILE",
    "TITLES_FILE",
]
