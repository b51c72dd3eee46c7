"""``repro serve`` as one writer parent and forked reader children.

Each server runs in a subprocess at two processes whatever the
machine's core count (``tests/serve/servers.py`` fixes the core count
the supervisor reads; there is no flag), so these checks mean the same
on 1, 2 or N cores.
"""

from __future__ import annotations

import asyncio
import functools
import json
import socket
import threading

import pytest

from repro.api import SearchEngine
from repro.errors import GraftError
from repro.exec import procpool
from repro.index.store import IndexStore, pinned_generations
from repro.serve import QueryService, ServiceConfig, run_server
from repro.serve.console import poll
from repro.serve.loadgen import run_loadgen
from repro.serve.supervisor import (
    GenerationPins,
    Supervisor,
    _Channel,
    _Child,
    server_processes,
)
from tests.serve.servers import (
    ServeProcesses,
    connections,
    served_by,
    wait_exited,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
]


def make_store(root, pending: int = 0) -> None:
    """A checkpointed store, plus ``pending`` WAL'd documents."""
    with SearchEngine.open(root) as engine:
        for i, text in enumerate(TEXTS):
            engine.add(text, title=f"doc{i}")
        engine.checkpoint()
        for i in range(pending):
            engine.add(f"pending quick note {i}", title=f"wal{i}")


def metric(snapshot: dict, name: str, **labels) -> float:
    return sum(
        sample["value"] for sample in snapshot[name]["samples"]
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


async def parent_and_child(server: ServeProcesses):
    """Two connections, returned as (the parent's, the child's)."""
    clients = await connections(server.port, 2)
    pids = [await served_by(c) for c in clients]
    assert server.pid in pids and pids[0] != pids[1]
    if pids[0] != server.pid:
        clients.reverse()
    return clients


def test_the_parent_loads_then_forks_and_two_connections_get_two_processes(
    tmp_path,
):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root) as server:

        async def main():
            parent, child = await parent_and_child(server)
            _, status, _ = await parent.request("/status")
            writer, reader = status["processes"]
            assert (writer["pid"], writer["role"]) == (server.pid, "writer")
            assert reader["role"] == "reader" and reader["pid"] != server.pid
            # The child serves the reader the parent loaded before the
            # fork: same generation, none loaded by the child itself.
            assert writer["loads"] == 1 and reader["loads"] == 0
            assert reader["generation"] == writer["generation"]
            assert reader["pinned"] == [writer["generation"]]
            # /internal/ routes live on the private sockets only.
            for client in (parent, child):
                code, _, _ = await client.request(
                    "/internal/snapshot?part=status"
                )
                assert code == 404
            for client in (parent, child):
                await client.close()

        asyncio.run(main())
        code, out = server.stop()
    assert code == 0 and "drained; bye" in out, out


def test_a_child_starts_with_an_empty_metrics_registry(tmp_path):
    root = tmp_path / "store"
    make_store(root, pending=1)
    with ServeProcesses(root) as server:

        async def main():
            parent, child = await parent_and_child(server)
            for client in (parent, child):
                code, _, _ = await client.request("/search?q=quick")
                assert code == 200
            _, merged, _ = await parent.request("/metrics?format=json")
            for client in (parent, child):
                await client.close()
            return merged

        merged = asyncio.run(main())
    # The WAL'd document was replayed twice before the fork — by the
    # writer and by the first reader — and never again: the child's
    # inherited copy of those counts was dropped, not merged twice.
    assert metric(merged, "graft_wal_replayed_records_total") == 2
    assert metric(
        merged, "graft_http_requests_total", route="/search", status="200"
    ) == 2


def test_an_add_through_a_child_reaches_the_writer_and_every_reader(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root) as server:

        async def main():
            parent, child = await parent_and_child(server)
            code, body, headers = await child.request(
                "/add", method="POST",
                body=json.dumps({"text": "zebra crossing", "title": "new"})
                .encode(),
                headers={"X-Request-Id": "relayed-add-1"},
            )
            assert (code, body["doc_id"]) == (202, len(TEXTS))
            assert headers["x-request-id"] == "relayed-add-1"
            code, swap, _ = await child.request(
                "/admin/checkpoint", method="POST"
            )
            assert code == 200
            for client in (parent, child):
                code, body, _ = await client.request("/search?q=zebra")
                assert code == 200
                assert body["generation"] == swap["generation"]
                assert [r["title"] for r in body["results"]] == ["new"]
            for client in (parent, child):
                await client.close()

        asyncio.run(main())


def test_hot_swap_under_load_on_two_processes(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root, max_inflight=4, deadline_ms=5000.0) as server:

        async def main():
            (client,) = await connections(server.port, 1)
            await client.request(
                "/add", method="POST",
                body=json.dumps({"text": "mid run quick fox"}).encode(),
            )
            report = await run_loadgen(
                "127.0.0.1", server.port, requests=120, concurrency=4,
                swap_at=30,
            )
            for _ in range(100):  # old-handle releases trail the acks
                _, status, _ = await client.request("/status")
                if all(row["pinned"] == [status["generation"]]
                       for row in status["processes"][1:]):
                    break
                await asyncio.sleep(0.02)
            await client.close()
            return report, status

        report, status = asyncio.run(main())
    assert report.errors == 0 and report.timeouts == 0, report.summary()
    assert report.shed == 0 and report.id_mismatches == 0
    assert len(report.generations) == 2
    assert status["generation"] in report.generations
    rows = status["processes"]
    assert len(rows) == 2 and all(row["requests"] > 0 for row in rows)
    assert {row["generation"] for row in rows} == {status["generation"]}
    assert rows[1]["pinned"] == [status["generation"]]


def test_a_request_served_by_a_child_is_in_the_parents_slow_capture(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root) as server:

        async def main():
            parent, child = await parent_and_child(server)
            code, body, _ = await child.request(
                "/search?q=quick+fox",
                headers={"X-Request-Id": "served-by-child-1"},
            )
            assert code == 200
            _, slow, _ = await parent.request("/debug/slow?n=64")
            _, inflight, _ = await parent.request("/debug/requests")
            _, status, _ = await parent.request("/status")
            for client in (parent, child):
                await client.close()
            return slow, inflight, status

        slow, inflight, status = asyncio.run(main())
    ids = [event["request_id"] for event in slow["events"]]
    assert "served-by-child-1" in ids
    # The parent's own /debug/requests is in flight while it merges.
    assert [v["pid"] for v in inflight["inflight"]] == [server.pid]
    assert status["telemetry"]["requests"] == 1
    assert status["admitted"] == 1


def test_sigterm_drains_every_process_and_leaves_none(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root) as server:
        # The ops console's snapshot lists both processes.
        polled = poll(f"http://127.0.0.1:{server.port}")
        rows = polled["processes"]
        assert [row["role"] for row in rows] == ["writer", "reader"]
        children = [row["pid"] for row in rows[1:]]
        code, out = server.stop()
    assert code == 0 and "drained; bye" in out, out
    assert wait_exited(children, 0.0)


def test_children_exit_when_the_parent_is_killed(tmp_path):
    root = tmp_path / "store"
    make_store(root)
    with ServeProcesses(root) as server:

        async def main():
            parent, child = await parent_and_child(server)
            _, status, _ = await parent.request("/status")
            await parent.close()
            return child, [row["pid"] for row in status["processes"][1:]]

        # An idle keep-alive connection on the child must not hold it.
        loop = asyncio.new_event_loop()
        try:
            child_client, children = loop.run_until_complete(main())
            server.proc.kill()
            server.proc.wait()
            assert wait_exited(children, 5.0)
        finally:
            loop.run_until_complete(child_client.close())
            loop.close()


def test_a_full_control_channel_delivers_every_release(tmp_path):
    """While the parent is not reading, a child's releases overflow the
    channel's socket buffer.  They wait, in order, and once the parent
    reads again every pin it held for the child drains."""
    generations = [f"gen-{i:06d}" for i in range(2000)]

    async def main():
        parent_end, child_end = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        server = Supervisor(
            QueryService(tmp_path, ServiceConfig(executor="serial")), 2
        )
        child = _Child(_Channel(parent_end), "", GenerationPins(tmp_path))
        server.children.append(child)
        sender = _Channel(child_end)
        try:
            sender.listen(lambda message, fds: None, lambda: None)
            for generation in generations:
                child.pins.pin(generation)
                sender.send({"op": "released", "generation": generation})
            assert sender.queued  # the buffer is full: the rest wait
            child.channel.listen(
                functools.partial(server._on_message, child),
                functools.partial(server._lost, child),
            )
            for _ in range(1000):
                if not child.pins.held and not sender.queued:
                    break
                await asyncio.sleep(0.01)
            return child, list(sender.queued)
        finally:
            server.close()
            child_end.close()

    child, queued = asyncio.run(main())
    assert (child.pins.held, queued, child.alive) == ({}, [], True)
    assert not pinned_generations(tmp_path)


def test_a_connection_a_child_cannot_take_now_stays_with_the_parent(
    tmp_path,
):
    """Connections go round the processes in turn; a child whose channel
    has messages waiting, or is closed, leaves its turn to the parent."""

    async def main():
        parent_end, child_end = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        server = Supervisor(
            QueryService(tmp_path, ServiceConfig(executor="serial")), 2
        )
        child = _Child(_Channel(parent_end), "", GenerationPins(tmp_path))
        server.children.append(child)
        places = []
        try:
            for waiting in (False, False, True, False):
                if waiting:
                    child.channel.queued.append(b"{}")
                with socket.socket() as conn:
                    places.append(server._hand_off(conn))
                child.channel.queued.clear()
            child_end.close()
            with socket.socket() as conn:
                places.append(server._hand_off(conn))
            return places
        finally:
            server.close()

    # turns: child, parent, child (waiting), parent, child (closed)
    assert asyncio.run(main()) == [True, False, False, False, False]


def test_a_generation_is_collected_only_after_every_child_released_it(
    tmp_path,
):
    root = tmp_path / "store"
    with SearchEngine.open(root) as writer:
        writer.add("first")
        old = writer.checkpoint()
        one, two = GenerationPins(root), GenerationPins(root)
        one.pin(old)
        two.pin(old)
        writer.add("second")
        writer.checkpoint()  # collects what is unpinned
        assert (root / old).exists()
        one.release(old)
        IndexStore.open(root).gc()
        assert (root / old).exists()
        two.release_all()
        IndexStore.open(root).gc()
        assert not (root / old).exists()
        assert one.held == two.held == {}


def test_the_supervisor_forks_no_process_with_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(procpool, "schedulable_cores", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with pytest.raises(GraftError, match="before any thread"):
            run_server(
                QueryService(tmp_path / "store",
                             ServiceConfig(executor="serial")),
            )
    finally:
        stop.set()
        thread.join()
    assert not (tmp_path / "store").exists()  # refused before opening


def test_features_that_need_one_place_keep_one_process(monkeypatch):
    monkeypatch.setattr(procpool, "schedulable_cores", lambda: 4)
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    assert server_processes(ServiceConfig()) == 4
    for single in (
        ServiceConfig(qlog_path="q.jsonl"),
        ServiceConfig(spans=True),
        ServiceConfig(spans=True, spans_path="spans.jsonl"),
        ServiceConfig(slos=("availability:0.999",)),
        ServiceConfig(profile_endpoint=True),
        ServiceConfig(executor="process"),
    ):
        assert server_processes(single) == 1
    monkeypatch.setenv("REPRO_EXEC", "process")
    assert server_processes(ServiceConfig()) == 1
