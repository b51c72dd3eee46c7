"""The process backend: shards on worker processes over a shared-memory
packed index.

The one shard driver (:func:`repro.exec.parallel.run_shards`) runs
shards in this process one after another (the ``serial`` executor) or,
through this module, on real OS processes that each hold their own GIL
— without pickling the index:

1. :class:`SharedIndexPublication` copies one packed blob (the bytes
   the engine's :class:`repro.index.packed.PackedIndex` already serves
   from) into a
   ``multiprocessing.shared_memory`` segment.  The blob is sealed: a
   publication is created per index generation and never mutated.
2. Workers attach by name, wrap the buffer in a zero-copy
   :class:`repro.index.packed.PackedIndex`, and cache the attachment
   (plus a :class:`repro.index.shard.ShardedIndex` over it) in
   module-global worker state — every query after the first reuses the
   decoded postings.
3. :class:`ProcessBackend` ships each live shard's small picklable
   :class:`repro.exec.parallel.ShardTask` to a worker, which runs the
   per-shard body the in-process backend runs
   (:func:`repro.exec.parallel.run_shard`) under a
   :class:`repro.exec.limits.QueryGuard` holding the query's absolute
   deadline, and returns the same
   :class:`repro.exec.parallel.ShardRun` — under profiling with the
   shard's trace subtree.  Everything else is the driver's.

Score consistency is inherited, not re-proved: workers score through an
:class:`repro.sa.context.IndexScoringContext` over the packed index,
whose statistics are global (they live in the blob), and shard doc
ranges are computed by the same integer arithmetic on both sides — so
the merged ranking is bit-identical to serial execution, which the
hypothesis suite and the strict audit gate assert over this path.

Nothing reaches a worker that is already running a shard: the shared
absolute deadline bounds every worker, a failure in one shard cancels
the tasks still queued, and the first error is re-raised once running
ones return, as itself — every class in :mod:`repro.errors` pickles
with its extra attributes.

Worker lifecycle is tied to the index generation that published the
blob: the engine builds one pool per sealed generation, and closing it
(hot swap, engine close, GC) shuts the workers down and unlinks the
segment — see docs/STORAGE.md.
"""

from __future__ import annotations

import os
import pickle
import weakref
from concurrent.futures import Future

from repro.exec.limits import QueryGuard, QueryLimits
from repro.exec.parallel import (
    ParallelResult,
    ShardRun,
    ShardTask,
    run_shard,
    run_shards,
)
from repro.graft.canonical import QueryInfo
from repro.index.packed import PackedIndex
from repro.index.shard import ShardedIndex, ShardView
from repro.ma.nodes import PlanNode
from repro.sa.scheme import ScoringScheme


class ProcPoolUnavailableError(Exception):
    """Shared memory or worker processes could not be set up, or a task
    cannot be shipped to them; :func:`repro.exec.parallel.run_plan` runs
    the query in-process instead (this never escapes the engine)."""


# -- publication --------------------------------------------------------------


class SharedIndexPublication:
    """One packed index blob published into a shared-memory segment.

    The segment outlives the parent's mapping until :meth:`close` both
    closes and unlinks it; workers that still hold attachments keep the
    memory alive (POSIX semantics) but the name disappears, so no new
    attachment can race a retiring generation.
    """

    def __init__(self, blob: bytes):
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:  # pragma: no cover - platform-dependent
            raise ProcPoolUnavailableError(str(exc)) from exc
        try:
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
        except OSError as exc:
            raise ProcPoolUnavailableError(
                f"cannot create shared memory: {exc}"
            ) from exc
        self._shm.buf[: len(blob)] = blob
        self.name: str = self._shm.name
        self.size: int = len(blob)
        self._closed = False

    def close(self) -> None:
        """Close the parent mapping and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass


# -- worker side --------------------------------------------------------------

#: This worker's attachment: (shm name, shm, ctx, ShardedIndex).  A pool
#: serves one publication at one shard count, so one slot is enough; a
#: worker recycled across pools (tests) drops the stale one.
_ATTACHED: tuple | None = None


def _attach(name: str, untrack: bool, num_shards: int) -> tuple:
    global _ATTACHED
    if _ATTACHED is None or _ATTACHED[0] != name:
        from multiprocessing import shared_memory

        from repro.sa.context import IndexScoringContext

        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            try:
                # Spawned workers run their own resource tracker, which
                # would unlink the parent's segment when this process
                # exits; the parent owns the lifetime, so drop the
                # attachment from tracking.  Forked workers share the
                # parent's tracker (one registration total) and must
                # NOT unregister, or the parent's own unlink double-
                # removes and the tracker logs a KeyError at exit.
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        if _ATTACHED is not None:
            try:
                _ATTACHED[1].close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        index = PackedIndex(shm.buf, source=f"shm://{name}")
        _ATTACHED = (
            name, shm, IndexScoringContext(index),
            ShardedIndex(index, num_shards),
        )
    return _ATTACHED


def _shard_task(
    shm_name: str,
    untrack_shm: bool,
    num_shards: int,
    shard_id: int,
    task: ShardTask,
    limits: QueryLimits | None,
    deadline_at: float | None,
) -> ShardRun:
    """Run one shard's plan inside a worker process.

    ``deadline_at`` is an absolute ``time.monotonic`` instant — on
    Linux ``CLOCK_MONOTONIC`` is system-wide, so the parent's deadline
    means the same thing here.
    """
    _, _, ctx, sharded = _attach(shm_name, untrack_shm, num_shards)
    return run_shard(
        sharded.shards[shard_id], ctx, task,
        QueryGuard(limits, deadline_at=deadline_at),
    )


# -- parent side --------------------------------------------------------------


class ProcessShardPool:
    """A worker pool bound to one published index generation.

    Owns the :class:`SharedIndexPublication` and a
    ``ProcessPoolExecutor`` whose workers attach to it.  ``close()`` is
    idempotent and also runs via a GC finalizer, so a pool abandoned
    with its engine never leaks worker processes or the segment.
    """

    def __init__(
        self,
        blob: bytes,
        num_shards: int,
        max_workers: int | None = None,
    ):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.num_shards = num_shards
        workers = num_shards if max_workers is None else max(1, max_workers)
        self.publication = SharedIndexPublication(blob)
        try:
            # fork is markedly cheaper than spawn and inherits the
            # loaded modules; fall back to the platform default where
            # fork does not exist (the worker entry point is
            # module-level, so spawn works too).
            if "fork" in multiprocessing.get_all_start_methods():
                mp_ctx = multiprocessing.get_context("fork")
            else:  # pragma: no cover - non-POSIX
                mp_ctx = multiprocessing.get_context()
            self._start_method = mp_ctx.get_start_method()
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_ctx
            )
        except (OSError, ValueError, ImportError) as exc:
            self.publication.close()
            raise ProcPoolUnavailableError(
                f"cannot start worker processes: {exc}"
            ) from exc
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._executor, self.publication
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Shut workers down and unlink the shared segment."""
        self._finalizer()

    def submit(self, *args) -> Future:
        return self._executor.submit(
            _shard_task, self.publication.name,
            self._start_method != "fork", self.num_shards, *args,
        )


def _shutdown_pool(executor, publication) -> None:
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):  # pragma: no cover - best effort
        pass
    publication.close()


def schedulable_cores() -> int:
    """Cores this process may run on (``taskset`` and cgroup cpusets
    count; ``os.cpu_count()`` ignores both)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_worker_count(num_shards: int) -> int:
    """Worker processes to start for ``num_shards`` shards: one per
    shard, but never more than the machine's schedulable cores (extra
    workers on a small box only add context switches)."""
    return max(1, min(num_shards, schedulable_cores()))


def start_pool(index: PackedIndex, num_shards: int) -> ProcessShardPool:
    """Publish ``index``'s packed blob, start the workers.

    Raises :class:`ProcPoolUnavailableError` when publishing or
    starting workers cannot be done here.
    """
    return ProcessShardPool(
        index.blob, num_shards, max_workers=default_worker_count(num_shards)
    )


class ProcessBackend:
    """Shards on a :class:`ProcessShardPool`'s workers.

    Raises :class:`ProcPoolUnavailableError` — the run-in-process
    signal — when the pool is closed or was built for another shard
    layout, or the task cannot be shipped.
    """

    name = "process"

    def __init__(
        self, pool: ProcessShardPool, sharded: ShardedIndex, task: ShardTask
    ):
        if pool.closed:
            raise ProcPoolUnavailableError("the worker pool is closed")
        if pool.num_shards != sharded.num_shards:
            raise ProcPoolUnavailableError(
                f"pool built for {pool.num_shards} shards, query wants "
                f"{sharded.num_shards}"
            )
        # ProcessPoolExecutor pickles work items on a feeder thread, so
        # an unpicklable plan/scheme/info would fail *asynchronously* on
        # the future — indistinguishable there from a real worker error.
        # Pickling once up front makes it deterministic (tasks are small).
        try:
            pickle.dumps(task)
        except Exception as exc:
            raise ProcPoolUnavailableError(
                f"cannot ship shard task to workers: {exc}"
            ) from exc
        self._pool = pool
        self._task = task

    def submit(
        self,
        shard: ShardView,
        limits: QueryLimits | None,
        deadline_at: float | None,
    ) -> Future:
        return self._pool.submit(
            shard.shard_id, self._task, limits, deadline_at
        )


def execute_sharded_process(
    pool: ProcessShardPool,
    sharded: ShardedIndex,
    plan: PlanNode,
    scheme: ScoringScheme,
    info: QueryInfo,
    top_k: int | None = None,
    limits: QueryLimits | None = None,
    profile: bool = False,
) -> ParallelResult:
    """Run one optimized plan across all shards on worker processes.

    ``sharded`` is the parent's sharded view of the same logical index
    (used for partition pruning — both sides cut shard ranges with the
    same arithmetic, so shard ids agree).
    """
    task = ShardTask(plan, scheme, info, top_k, profile)
    return run_shards(ProcessBackend(pool, sharded, task), sharded, task, limits)
