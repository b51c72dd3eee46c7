"""Advisory single-writer lock for a store directory.

Two engines appending to one ``wal.jsonl`` — or racing a checkpoint
rename — would interleave silently; the lock turns that misuse into a
typed :class:`repro.errors.StoreLockedError` instead.

The lock is an OS file lock (``flock``, exclusive, non-blocking) held on
an open descriptor of the ``LOCK`` file for as long as the writer lives;
the file's content, ``pid@host``, only tells a refused opener who holds
it.  The kernel drops the lock when the holder's descriptor closes —
including when the holder crashes, the very event this store is designed
around — so there is nothing to *break*: a ``LOCK`` file left behind by
a dead writer is simply unlocked, and the next opener locks that same
file and overwrites the name in it.  No path is ever unlinked or renamed
by anyone but the lock's holder, which is what the earlier
rename-claim-and-restore scheme could not guarantee (a breaker could
rename away a racer's fresh lock, lose the restore to a third opener,
and leave two live writers).

A forked child — a process-pool worker — shares the holder's open file
description and would keep the lock alive past the holder's death, so
children close their inherited copies at fork.

Two checks remain after ``flock`` succeeds:

* the descriptor must still be the file the path names — a holder that
  releases unlinks ``LOCK`` before unlocking, so an opener that was
  waiting on the old inode retries on the new one instead of "holding"
  a file nobody else can see;
* a name in the file that is not provably dead — a live pid here, or any
  pid on another host, written by a holder ``flock`` cannot see (another
  machine on a shared mount, a pre-``flock`` version of this code) — is
  respected: the opener backs off without touching the file.

Acquisition also supports **bounded retry with backoff** for callers
(like the query service's writer supervisor) that race a just-released
lock: ``acquire(retries=N)`` sleeps a jittered, linearly growing backoff
between attempts instead of failing on the first collision.  The default
remains fail-fast (``retries=0``) so interactive misuse still reports
immediately.

Readers never take the lock: a reader resolves one manifest and only
touches files that manifest references, which a concurrent writer never
mutates in place.
"""

from __future__ import annotations

import fcntl
import os
import pathlib
import socket
import time
import weakref
from typing import Callable

from repro.errors import StoreLockedError

LOCK_NAME = "LOCK"


class StoreLock:
    """Holds the writer lock on a store directory."""

    def __init__(self, directory: str | pathlib.Path):
        self.path = pathlib.Path(directory) / LOCK_NAME
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(
        self,
        retries: int = 0,
        backoff_s: float = 0.02,
        jitter_s: float = 0.02,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "StoreLock":
        """Take the lock; raises when another writer truly holds it.

        Args:
            retries: Extra acquisition rounds after the first.
            backoff_s: Base sleep between rounds, grown linearly.
            jitter_s: Uniform random extra sleep per round, so two
                retrying openers do not stay phase-locked.
            sleep: Injectable for deterministic tests.
        """
        holder = f"{os.getpid()}@{socket.gethostname()}"
        current = None
        for attempt in range(retries + 1):
            if attempt:
                sleep(backoff_s * attempt + jitter_s * _jitter())
            current = self._try_acquire(holder)
            if self.held:
                return self
        raise StoreLockedError(
            f"store {self.path.parent} is locked by another writer "
            f"({current or 'unknown holder'}); close that engine or "
            f"remove a stale {LOCK_NAME} file",
            path=str(self.path),
            holder=current,
        )

    def _try_acquire(self, holder: str) -> str | None:
        """One round: lock ``LOCK`` and write our name into it, or
        return the name of whoever holds it."""
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                current = _read_name(fd)
                os.close(fd)
                return current
            if self._is_at_path(fd):
                break
            os.close(fd)  # a releasing holder unlinked it under us
        current = _read_name(fd)
        if current and not self._is_stale(current):
            os.close(fd)
            return current
        os.ftruncate(fd, 0)
        os.pwrite(fd, holder.encode("ascii"), 0)
        os.fsync(fd)
        self._fd = fd
        _HELD.add(self)
        return None

    def _is_at_path(self, fd: int) -> bool:
        try:
            named = os.stat(self.path)
        except FileNotFoundError:
            return False
        mine = os.fstat(fd)
        return (named.st_dev, named.st_ino) == (mine.st_dev, mine.st_ino)

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        _HELD.discard(self)
        try:
            # Unlink before unlocking, and only our own file: a LOCK
            # removed by hand and re-created by a new writer is theirs.
            if self._is_at_path(fd):
                self.path.unlink(missing_ok=True)
        finally:
            os.close(fd)

    def _is_stale(self, holder: str) -> bool:
        """A same-host name whose pid is gone was left by a crash."""
        if "@" not in holder:
            return False
        pid_text, host = holder.split("@", 1)
        if host != socket.gethostname():
            return False
        try:
            pid = int(pid_text)
        except ValueError:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False  # alive, owned by someone else
        return False

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def _read_name(fd: int) -> str | None:
    """The ``pid@host`` written in the lockfile (None while empty)."""
    return os.pread(fd, 256, 0).decode("ascii", "replace").strip() or None


#: Locks this process holds, for :func:`_drop_in_forked_child`.
_HELD: "weakref.WeakSet[StoreLock]" = weakref.WeakSet()


def _drop_in_forked_child() -> None:
    """The lock is the parent's: close the child's copy of each held
    descriptor, so the kernel releases the lock when the *writer* dies,
    not when its last orphaned pool worker does."""
    for lock in list(_HELD):
        os.close(lock._fd)
        lock._fd = None
    _HELD.clear()


os.register_at_fork(after_in_child=_drop_in_forked_child)


def _jitter() -> float:
    """Uniform [0, 1) from the clock's sub-millisecond noise — enough to
    de-phase two retrying openers without importing ``random``."""
    return (time.monotonic_ns() % 1_000_000) / 1_000_000.0
