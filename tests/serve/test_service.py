"""QueryService semantics: swap atomicity, breaker degradation, writer
death and revival — driven in-process, no sockets."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import SearchEngine
from repro.index.store import GEN_PREFIX, IndexStore, pinned_generations
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueryService, ServiceConfig
from repro.serve.http import HttpError

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick fox and a slow dog walk home",
    "quick release fox terrier dog show dog fox",
    "slow brown dog naps while the fox watches",
]


def make_store(root) -> None:
    with SearchEngine.open(root) as engine:
        for i, text in enumerate(TEXTS):
            engine.add(text, title=f"doc{i}")
        engine.checkpoint()


def run(coro):
    return asyncio.run(coro)


def service(root, **kw) -> QueryService:
    kw.setdefault("registry", MetricsRegistry())
    config = kw.pop("config", None) or ServiceConfig(
        max_inflight=4, max_queue=8, deadline_ms=5000.0
    )
    return QueryService(root, config, **kw)


async def started(root, **kw) -> QueryService:
    svc = service(root, **kw)
    await svc.start()
    return svc


def test_search_payload_names_exactly_one_generation(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        payload = await svc.search("quick fox")
        assert payload["generation"] == svc.status()["generation"]
        assert payload["epoch"] == 1
        assert payload["results"]
        assert payload["results"][0]["title"].startswith("doc")
        assert payload["degraded"] is False
        assert payload["breaker"] == "closed"
        await svc.stop()

    run(main())


def test_added_documents_become_searchable_only_after_swap(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        before = await svc.search("zebra")
        assert before["results"] == []
        added = await svc.add_document("a zebra gallops past", title="zebra")
        assert added["doc_id"] == len(TEXTS)
        # Durable (WAL) but not yet visible: readers are immutable.
        assert (await svc.search("zebra"))["results"] == []
        first = svc.status()["generation"]
        swap = await svc.checkpoint_and_swap()
        assert swap["previous"] == first
        assert swap["generation"] != first
        assert svc.readers.epoch == 2
        after = await svc.search("zebra")
        assert after["generation"] == swap["generation"]
        assert [r["title"] for r in after["results"]] == ["zebra"]
        await svc.stop()

    run(main())


def test_inflight_search_finishes_on_its_pinned_old_generation(tmp_path):
    """The zero-torn-generation invariant, surgically: a search that
    pinned generation N completes on N with bit-identical scores even
    though the swap to N+1 happens while it is executing."""
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        reference = await svc.search("quick fox")

        release = threading.Event()
        entered = threading.Event()
        original = svc.readers.pin

        def blocking_pin():
            handle, epoch = original()
            entered.set()
            release.wait(timeout=5)  # hold the pin while the swap runs
            return handle, epoch

        svc.readers.pin = blocking_pin
        slow = asyncio.ensure_future(svc.search("quick fox"))
        await asyncio.get_running_loop().run_in_executor(
            None, entered.wait, 5
        )
        svc.readers.pin = original
        await svc.add_document("brand new quick fox data", title="new")
        swap_task = asyncio.ensure_future(svc.checkpoint_and_swap())
        await asyncio.sleep(0.01)
        release.set()
        old_payload = await slow
        swap = await swap_task

        assert old_payload["generation"] == reference["generation"]
        assert old_payload["results"] == reference["results"]  # bit-identical
        new_payload = await svc.search("quick fox")
        assert new_payload["generation"] == swap["generation"]
        assert new_payload["epoch"] == 2
        await svc.stop()

    run(main())


def test_swap_pins_protect_old_generation_from_gc(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        first = svc.status()["generation"]
        assert pinned_generations(root) == {first}
        await svc.add_document("extra doc for the next generation")
        swap = await svc.checkpoint_and_swap()
        # The old handle had no inflight requests: its pin is released
        # and only the new generation stays pinned.
        assert pinned_generations(root) == {swap["generation"]}
        gens = {p.name for p in root.iterdir()
                if p.name.startswith(GEN_PREFIX)}
        assert swap["generation"] in gens
        await svc.stop()

    run(main())


def test_concurrent_swap_requests_conflict(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        async with svc._swap_lock:
            with pytest.raises(HttpError) as info:
                await svc.checkpoint_and_swap()
            assert info.value.status == 409
        await svc.stop()

    run(main())


def test_breaker_trip_degrades_to_serial_and_recovers(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        config = ServiceConfig(
            max_inflight=4, max_queue=8, deadline_ms=5000.0,
            breaker_threshold=1, breaker_cooldown_s=30.0, shards=2,
        )
        svc = await started(root, config=config)
        reference = await svc.search("quick fox")
        assert reference["served_degraded_serial"] is False

        svc.breaker.record_failure()  # as an integrity failure would
        assert svc.breaker.state == "open"
        degraded = await svc.search("quick fox")
        assert degraded["served_degraded_serial"] is True
        assert degraded["shard_count"] == 1  # serial fallback engine
        # Degraded, not wrong: the serial path is score-consistent.
        assert degraded["results"] == reference["results"]
        assert svc.status()["breaker"] == "open"

        # Cooldown elapses -> one probe runs the full path and closes.
        svc.breaker._opened_at -= 31.0
        probe = await svc.search("quick fox")
        assert probe["served_degraded_serial"] is False
        assert svc.breaker.state == "closed"
        await svc.stop()

    run(main())


def test_integrity_failure_during_search_trips_the_breaker(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        handle = svc.readers.current
        original_engine = handle.engine

        class PoisonedEngine:
            def search(self, *a, **kw):
                from repro.errors import ScoreConsistencyError

                raise ScoreConsistencyError("scores diverged (injected)")

            def __getattr__(self, name):
                return getattr(original_engine, name)

        handle.engine = PoisonedEngine()
        with pytest.raises(HttpError) as info:
            await svc.search("quick fox")
        assert info.value.status == 500
        assert svc.breaker.state == "open"
        # Requests keep being answered -- on the degraded serial path.
        payload = await svc.search("quick fox")
        assert payload["served_degraded_serial"] is True
        assert payload["results"]
        handle.engine = original_engine
        await svc.stop()

    run(main())


def test_writer_death_leaves_readers_serving_and_revive_recovers(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)

        def boom():
            raise RuntimeError("writer process died")

        svc._writer.checkpoint = boom
        with pytest.raises(HttpError) as info:
            await svc.checkpoint_and_swap()
        assert info.value.status == 503
        assert not svc.writer_alive
        # Readers are untouched.
        assert (await svc.search("quick fox"))["results"]
        # Ingest refuses fast instead of hanging.
        with pytest.raises(HttpError) as info:
            await svc.add_document("while the writer is down")
        assert info.value.status == 503

        result = await svc.revive_writer()
        assert result["revived"] is True
        await svc.add_document("after revival all is well", title="ok")
        swap = await svc.checkpoint_and_swap()
        payload = await svc.search("revival")
        assert payload["generation"] == swap["generation"]
        assert [r["title"] for r in payload["results"]] == ["ok"]
        assert IndexStore.open(root).verify()["doc_count"] == len(TEXTS) + 1
        await svc.stop()

    run(main())


def test_draining_service_refuses_new_work(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        svc.draining = True
        for call in (
            svc.search("quick"),
            svc.explain("quick"),
            svc.add_document("nope"),
            svc.checkpoint_and_swap(),
        ):
            with pytest.raises(HttpError) as info:
                await call
            assert info.value.status == 503
        assert svc.status()["ready"] is False
        svc.draining = False
        await svc.stop()

    run(main())


def test_deadline_expiry_in_queue_is_504_and_bad_query_is_400(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        config = ServiceConfig(max_inflight=1, max_queue=4,
                               deadline_ms=5000.0)
        svc = await started(root, config=config)
        await svc.admission.admit()  # occupy the only slot
        with pytest.raises(HttpError) as info:
            await svc.search("quick fox", deadline_ms=30.0)
        assert info.value.status == 504
        svc.admission.exit()
        with pytest.raises(HttpError) as info:
            await svc.search('"unterminated phrase')
        assert info.value.status == 400
        with pytest.raises(HttpError) as info:
            await svc.search("quick", scheme="no-such-scheme")
        assert info.value.status == 400
        await svc.stop()

    run(main())


def test_explain_reports_the_current_generation_plan(tmp_path):
    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        payload = await svc.explain("quick fox")
        assert payload["generation"] == svc.status()["generation"]
        assert "plan" in payload and payload["plan"]
        await svc.stop()

    run(main())


def test_search_payload_is_json_with_builtin_numbers(tmp_path):
    """Doc ids come out of packed postings buffers and scores out of the
    operator chain: both must reach the payload as builtin ``int`` and
    ``float`` (a NumPy scalar would break ``json.dumps`` or change its
    text)."""
    import json

    root = tmp_path / "store"
    make_store(root)

    async def main():
        svc = await started(root)
        for scheme in ("sumbest", "anysum", "lucene", "meansum"):
            for query in ("quick fox", '"quick fox" dog', "quick | naps"):
                payload = await svc.search(query, scheme=scheme)
                assert payload["results"]
                for row in payload["results"]:
                    assert type(row["doc_id"]) is int
                    assert type(row["score"]) is float
                assert json.loads(json.dumps(payload)) == payload
        await svc.stop()

    run(main())
