"""Chaos harness: kill the writer at every checkpoint crash point while
searches are inflight; readers must never observe a torn generation.

Same discovery idiom as ``tests/index/test_store_faults.py``: run the
service scenario once with a recording injector to learn the ordered
crash-point schedule, slice it to the checkpoint phase, then re-run the
scenario once per point with the injector set to die exactly there.
After every crash:

* every search issued concurrently with the dying checkpoint completes
  with status 200 on the *old* generation, scores bit-identical to a
  pre-crash reference — no request sees a blend of generations;
* the service stays ready with the writer marked down; and
* :meth:`QueryService.revive_writer` repairs the store (torn WAL tail
  truncated, dead-checkpoint residue collected), after which ingest,
  checkpoint and swap work end to end and the store passes a full
  ``verify()``.

The last case repeats the crash behind two server processes: a forked
child keeps serving while the parent's writer is down.

Slow/poisoned queries ride along: one request in each inflight batch
carries a tiny deadline (exercising partial/timeout semantics under
crash pressure) and must degrade or time out cleanly, never 500.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import tempfile

import pytest

from repro.api import SearchEngine
from repro.index.store import (
    IndexStore,
    SimulatedCrash,
    StoreFaultInjector,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueryService, ServiceConfig
from repro.serve.http import HttpError
from tests.serve.servers import ServeProcesses, connections, served_by

BASE_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
]
NEW_TEXT = "fresh quick fox document arriving over the wal"
QUERY = "quick fox"


def build_base(root: pathlib.Path) -> None:
    with SearchEngine.open(root) as engine:
        for i, text in enumerate(BASE_TEXTS):
            engine.add(text, title=f"doc{i}")
        engine.checkpoint()


def make_config() -> ServiceConfig:
    return ServiceConfig(max_inflight=4, max_queue=8, deadline_ms=5000.0)


async def scenario(root, inj) -> tuple[QueryService, int]:
    """Start the service (faulted writer), ingest one doc, note the
    recorder position, then checkpoint.  Returns (service, index of the
    first checkpoint-phase crash point)."""
    svc = QueryService(
        root, make_config(), store_faults=inj, registry=MetricsRegistry()
    )
    await svc.start()
    await svc.add_document(NEW_TEXT, title="doc3")
    checkpoint_from = len(inj.points)
    await svc.checkpoint_and_swap()
    return svc, checkpoint_from


def discover_schedule() -> list[tuple[str, int]]:
    """The (point, occurrence) pairs hit during the checkpoint phase."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="graft-serve-chaos-"))
    try:
        root = tmp / "store"
        build_base(root)
        recorder = StoreFaultInjector()

        async def main():
            svc, checkpoint_from = await scenario(root, recorder)
            await svc.stop()
            return checkpoint_from

        checkpoint_from = asyncio.run(main())
        seen: dict[str, int] = {}
        schedule = []
        for index, point in enumerate(recorder.points):
            seen[point] = seen.get(point, 0) + 1
            if index >= checkpoint_from:
                schedule.append((point, seen[point]))
        return schedule
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


SCHEDULE = discover_schedule()


def test_checkpoint_phase_has_a_meaningful_schedule():
    assert len(SCHEDULE) >= 10
    ops = {point.split(":")[1] for point, _ in SCHEDULE}
    assert {"write", "fsync", "rename"} <= ops
    assert any("MANIFEST" in point and "rename" in point
               for point, _ in SCHEDULE)


@pytest.mark.parametrize(
    "point,occurrence",
    SCHEDULE,
    ids=[f"{p}#{k}" for p, k in SCHEDULE],
)
def test_writer_killed_at_crash_point_never_tears_a_reader(
    tmp_path, point, occurrence
):
    root = tmp_path / "store"
    build_base(root)
    inj = StoreFaultInjector(crash_at=point, crash_on_hit=occurrence)

    async def main():
        svc = QueryService(
            root, make_config(), store_faults=inj,
            registry=MetricsRegistry(),
        )
        await svc.start()
        reference = await svc.search(QUERY)
        old_generation = reference["generation"]
        await svc.add_document(NEW_TEXT, title="doc3")

        # Inflight batch racing the dying checkpoint; one poisoned
        # (near-zero deadline) request rides along.
        searches = [
            asyncio.ensure_future(svc.search(QUERY)) for _ in range(4)
        ]
        poisoned = asyncio.ensure_future(
            svc.search(QUERY, deadline_ms=0.001)
        )
        with pytest.raises(HttpError) as info:
            await svc.checkpoint_and_swap()
        assert info.value.status == 503
        assert inj.fired, "the targeted crash point was never reached"
        assert isinstance(svc._writer_fault, SimulatedCrash)

        # 1. No reader observed a torn generation: every concurrent
        #    search succeeded on the old generation, bit-identically.
        for payload in await asyncio.gather(*searches):
            assert payload["generation"] == old_generation
            assert payload["results"] == reference["results"]
        # The poisoned query degraded or timed out cleanly -- never a
        # torn read, never an internal error.
        try:
            slow = await poisoned
            assert slow["degraded"] is True or slow["results"] is not None
        except HttpError as exc:
            assert exc.status == 504

        # 2. The service stays ready on the old generation; the writer
        #    is reported down.
        status = svc.status()
        assert status["ready"] is True
        assert status["writer_alive"] is False
        assert status["generation"] == old_generation
        after = await svc.search(QUERY)
        assert after["results"] == reference["results"]

        # 3. Revival repairs the store exactly like a process restart.
        revived = await svc.revive_writer()
        assert revived["revived"] is True
        # The WAL'd doc3 survived the crash if its add() had returned
        # (it had -- adds are durable on return).
        await svc.add_document("post recovery document", title="doc4")
        swap = await svc.checkpoint_and_swap()
        payload = await svc.search(QUERY)
        assert payload["generation"] == swap["generation"]
        new_docs = await svc.search("fresh wal")
        assert any(r["title"] == "doc3" for r in new_docs["results"])

        report = IndexStore.open(root).verify()
        assert report["wal_torn_bytes"] == 0
        assert report["doc_count"] == len(BASE_TEXTS) + 2
        await svc.stop()

    asyncio.run(main())


def test_writer_killed_mid_checkpoint_while_a_child_process_serves(tmp_path):
    """The same crash behind two server processes: the forked child keeps
    answering from the last durable generation while the parent's writer
    is down, and revival plus a checkpoint moves every process on."""
    point, occurrence = next(
        (p, k) for p, k in SCHEDULE if "MANIFEST" in p and "rename" in p
    )
    root = tmp_path / "store"
    build_base(root)
    faults = {"crash_at": point, "crash_on_hit": occurrence}
    with ServeProcesses(root, processes=2, faults=faults,
                        max_inflight=4, max_queue=8,
                        deadline_ms=5000.0) as server:

        async def main():
            clients = await connections(server.port, 2)
            pids = [await served_by(client) for client in clients]
            child = clients[[p != server.pid for p in pids].index(True)]
            code, reference, _ = await child.request("/search?q=quick+fox")
            old_generation = reference["generation"]
            code, _, _ = await child.request(
                "/add", method="POST",
                body=json.dumps({"text": NEW_TEXT, "title": "doc3"}).encode(),
            )
            assert code == 202
            searches = [
                asyncio.ensure_future(c.request("/search?q=quick+fox"))
                for c in clients
            ]
            (side,) = await connections(server.port, 1)
            code, body, _ = await side.request(
                "/admin/checkpoint", method="POST"
            )
            assert code == 503, body
            for code, payload, _ in await asyncio.gather(*searches):
                assert code == 200
                assert payload["generation"] == old_generation
                assert payload["results"] == reference["results"]

            # The writer is down; the child still answers, unchanged.
            code, after, _ = await child.request("/search?q=quick+fox")
            assert code == 200 and after["results"] == reference["results"]
            _, status, _ = await child.request("/status")
            assert status["writer_alive"] is False and status["ready"]
            assert {row["generation"] for row in status["processes"]} == {
                old_generation
            }

            code, revived, _ = await child.request(
                "/admin/revive", method="POST"
            )
            assert code == 200 and revived["revived"] is True
            code, swap, _ = await child.request(
                "/admin/checkpoint", method="POST"
            )
            assert code == 200
            _, status, _ = await child.request("/status")
            assert [row["generation"] for row in status["processes"]] == [
                swap["generation"], swap["generation"]
            ]
            _, fresh, _ = await child.request("/search?q=fresh+wal")
            assert any(r["title"] == "doc3" for r in fresh["results"])
            for client in (*clients, side):
                await client.close()

        asyncio.run(main())
        code, out = server.stop()
    assert code == 0, out
    assert IndexStore.open(root).verify()["wal_torn_bytes"] == 0
