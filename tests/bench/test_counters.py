"""The paper workload's work counters, pinned exactly.

Every registered scoring scheme × the Section 8 queries Q4–Q11 over the
600-document bench corpus.  Per key the pin holds what one profiled
search reports: result rows, what the optimizer chose (the applied
rules in order, the rules considered, plan nodes), how much index data
the plan touched (:class:`repro.exec.iterator.ExecutionMetrics`), and
the trace tree's summed ``seeks`` and leaf ``rows_out``, which
graftbench reports as ``exec.seeks`` and ``exec.scan_rows``.  None of these depends on the machine, so they are
compared with ``==``; wall clock is ``graftbench compare``'s job.  Each
pinned key is its own test case, so a failure names the key in its id.

A change that moves a counter on purpose re-pins the file, and says why
in its description::

    PYTHONPATH=src python tests/bench/test_counters.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import SearchEngine
from repro.bench.workload import PAPER_QUERIES, bench_fixture
from repro.exec.cache import CacheConfig
from repro.sa.registry import available_schemes, get_scheme

PIN_PATH = pathlib.Path(__file__).with_name("counters.json")
NUM_DOCS = 600


def shipped_schemes() -> list[str]:
    """The registered schemes the library ships (other tests register
    their own into the same process-wide registry)."""
    return [
        name for name in available_schemes()
        if type(get_scheme(name)).__module__.startswith("repro.")
    ]


def measure() -> dict[str, dict]:
    """The counters of every ``scheme/query`` key, each from one
    profiled search."""
    fx = bench_fixture(num_docs=NUM_DOCS)
    counters = {}
    # Serial and uncached on purpose: the REPRO_SHARDS and REPRO_EXEC
    # legs of the suite must pin the same numbers.
    with SearchEngine(
        fx.collection, shards=1, executor="serial", cache=CacheConfig.off()
    ) as engine:
        for scheme_name in shipped_schemes():
            for qname, text in PAPER_QUERIES.items():
                outcome = engine.search(text, scheme=scheme_name, profile=True)
                counters[f"{scheme_name}/{qname}"] = counters_of(outcome)
    return counters


def counters_of(outcome) -> dict:
    """One search's pinned counters.  ``plan_text`` renders one plan
    node per line."""
    metrics = outcome.metrics
    trace = list(outcome.stats.walk())
    return {
        "rows": len(outcome.results),
        "applied": outcome.applied_optimizations,
        "rules_considered": len(outcome.rewrite_log),
        "plan_nodes": len(outcome.plan_text.splitlines()),
        "positions_scanned": metrics.positions_scanned,
        "doc_entries_scanned": metrics.doc_entries_scanned,
        "rows_grouped": metrics.rows_grouped,
        "rows_joined": metrics.rows_joined,
        "seeks": sum(node.stats.seeks for node in trace),
        "scan_rows": sum(
            node.stats.rows_out for node in trace if not node.children
        ),
    }


def render(counters: dict[str, dict]) -> str:
    """One compact JSON line per key, so a re-pin diffs key by key."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(value)}"
        for key, value in counters.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def differences(pinned: dict[str, dict], measured: dict[str, dict]) -> list[str]:
    """Each moved counter as ``key: field pinned X, measured Y``."""
    out = [f"{key}: not measured" for key in pinned if key not in measured]
    out += [f"{key}: not pinned" for key in measured if key not in pinned]
    for key in pinned.keys() & measured.keys():
        want, got = pinned[key], measured[key]
        for field in sorted(want.keys() | got.keys()):
            if want.get(field) != got.get(field):
                out.append(
                    f"{key}: {field} pinned {want.get(field)!r}, "
                    f"measured {got.get(field)!r}"
                )
    return sorted(out)


PINNED = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}
REPIN = (
    "if on purpose, re-pin with "
    "`PYTHONPATH=src python tests/bench/test_counters.py` and state why"
)


@pytest.fixture(scope="module")
def measured() -> dict[str, dict]:
    return measure()


def test_every_key_is_pinned_and_measured(measured):
    assert measured.keys() == PINNED.keys(), (
        f"keys moved from {PIN_PATH.name}; {REPIN}:\n"
        + "\n".join(differences(
            {key: PINNED[key] for key in PINNED.keys() - measured.keys()},
            {key: measured[key] for key in measured.keys() - PINNED.keys()},
        ))
    )


@pytest.mark.parametrize("key", list(PINNED))
def test_work_counters_match_the_pin(measured, key):
    assert key in measured, f"{key}: not measured"
    pinned = {key: PINNED[key]}
    got = {key: measured[key]}
    assert got == pinned, (
        f"work counters moved from {PIN_PATH.name}; {REPIN}:\n"
        + "\n".join(differences(pinned, got))
    )


if __name__ == "__main__":
    PIN_PATH.write_text(render(measure()))
    print(f"pinned {PIN_PATH}")
