"""Writer-lock retry/backoff and the stale-lock race.

The dangerous interleaving: two openers both observe a stale (dead-pid)
``LOCK``, both break it, and the second breaker's removal deletes the
*first breaker's freshly created* lock — two live writers.  The lock is
an OS file lock held on ``LOCK``, so a dead writer's file is simply
unlocked and nobody unlinks or renames a file they do not hold; these
tests hammer N simultaneous openers and assert the exactly-one-holder
invariant.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.api import SearchEngine
from repro.errors import StoreLockedError
from repro.index.store import LOCK_NAME
from repro.index.store.lock import StoreLock


def write_stale_lock(root) -> None:
    """A lockfile naming a dead pid on this host."""
    root.mkdir(parents=True, exist_ok=True)
    # Spawn-and-reap: the child's pid is guaranteed dead and ours.
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    (root / LOCK_NAME).write_text(f"{pid}@{os.uname().nodename}")


def test_acquire_fails_fast_by_default(tmp_path):
    first = StoreLock(tmp_path).acquire()
    try:
        with pytest.raises(StoreLockedError):
            StoreLock(tmp_path).acquire()
    finally:
        first.release()


def test_retry_waits_out_a_releasing_holder(tmp_path):
    first = StoreLock(tmp_path).acquire()
    sleeps: list[float] = []

    def sleep(seconds: float) -> None:
        sleeps.append(seconds)
        if len(sleeps) == 2:
            first.release()  # frees the lock mid-retry

    second = StoreLock(tmp_path).acquire(
        retries=5, backoff_s=0.01, sleep=sleep
    )
    assert second.held
    assert len(sleeps) >= 2
    # Linear backoff: each round's base sleep grows.
    assert sleeps[1] > sleeps[0] - 0.01
    second.release()


def test_retries_exhausted_still_raises_with_holder(tmp_path):
    first = StoreLock(tmp_path).acquire()
    try:
        sleeps: list[float] = []
        with pytest.raises(StoreLockedError) as info:
            StoreLock(tmp_path).acquire(
                retries=3, backoff_s=0.001, sleep=sleeps.append
            )
        assert len(sleeps) == 3
        assert str(os.getpid()) in str(info.value)
    finally:
        first.release()


def test_stale_lock_is_broken_and_acquired(tmp_path):
    write_stale_lock(tmp_path)
    lock = StoreLock(tmp_path).acquire()
    assert lock.held
    assert str(os.getpid()) in (tmp_path / LOCK_NAME).read_text()
    lock.release()
    assert not (tmp_path / LOCK_NAME).exists()
    # No claim residue left behind.
    assert not list(tmp_path.glob(f"{LOCK_NAME}.break.*"))


def test_live_lock_is_never_broken(tmp_path):
    first = StoreLock(tmp_path).acquire()
    try:
        with pytest.raises(StoreLockedError):
            StoreLock(tmp_path).acquire(retries=2, backoff_s=0.001,
                                        sleep=lambda s: None)
        # The holder's lockfile is intact, not renamed away.
        assert str(os.getpid()) in (tmp_path / LOCK_NAME).read_text()
        assert first.held
    finally:
        first.release()


@pytest.mark.parametrize("openers", [2, 8])
def test_simultaneous_stale_breakers_yield_exactly_one_holder(
    tmp_path, openers
):
    """N threads race to break one stale lock; exactly one must win and
    the winner's fresh lockfile must never be deleted by a loser."""
    for round_number in range(10):
        root = tmp_path / f"round{round_number}"
        write_stale_lock(root)
        barrier = threading.Barrier(openers)
        results: list[StoreLock | BaseException] = [None] * openers

        def race(slot: int) -> None:
            lock = StoreLock(root)
            barrier.wait()
            try:
                results[slot] = lock.acquire()
            except BaseException as exc:  # noqa: BLE001
                results[slot] = exc

        threads = [
            threading.Thread(target=race, args=(i,)) for i in range(openers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        winners = [r for r in results if isinstance(r, StoreLock)]
        losers = [r for r in results if isinstance(r, BaseException)]
        assert len(winners) == 1, (
            f"round {round_number}: {len(winners)} holders "
            f"(the unlink race fired)"
        )
        assert all(isinstance(e, StoreLockedError) for e in losers)
        # The winner's lock survived every loser's break attempt.
        assert (root / LOCK_NAME).exists()
        assert str(os.getpid()) in (root / LOCK_NAME).read_text()
        winners[0].release()


def test_crashed_writer_with_a_live_forked_child_leaves_no_lock(tmp_path):
    """A pool worker forked while the writer held the lock shares its
    open file description; it must not keep the lock alive after the
    writer dies."""
    import signal
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(f"""
        import os, sys, time
        from repro.index.store.lock import StoreLock
        lock = StoreLock({str(tmp_path)!r}).acquire()
        child = os.fork()
        if child == 0:
            os.close(1)  # or the test waits for the orphan's end of the pipe
            time.sleep(60)
            os._exit(0)
        sys.stdout.write(str(child))
        sys.stdout.flush()
        os._exit(1)  # the writer crashes: no release, no unlink
    """)
    crashed = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    orphan = int(crashed.stdout)
    try:
        assert crashed.returncode == 1
        assert (tmp_path / LOCK_NAME).exists()
        lock = StoreLock(tmp_path).acquire()
        assert str(os.getpid()) in (tmp_path / LOCK_NAME).read_text()
        lock.release()
    finally:
        os.kill(orphan, signal.SIGKILL)


def test_release_leaves_a_lock_it_does_not_hold_alone(tmp_path):
    first = StoreLock(tmp_path).acquire()
    (tmp_path / LOCK_NAME).unlink()  # "remove a stale LOCK file" by hand
    second = StoreLock(tmp_path).acquire()
    first.release()
    assert second.held and (tmp_path / LOCK_NAME).exists()
    with pytest.raises(StoreLockedError):
        StoreLock(tmp_path).acquire()
    second.release()
    assert not (tmp_path / LOCK_NAME).exists()


def test_engine_open_breaks_stale_lock_end_to_end(tmp_path):
    root = tmp_path / "store"
    with SearchEngine.open(root) as engine:
        engine.add("a document before the crash")
        engine.checkpoint()
    write_stale_lock(root)
    with SearchEngine.open(root) as engine:  # breaks the stale lock
        assert len(engine.collection) == 1
        engine.add("a document after recovery")
        engine.checkpoint()
