"""What every workload shares: the run configuration, the result record,
repeated set-up and the closed-loop search driver."""

from __future__ import annotations

import gc
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import GraftError

from graftbench import DEFAULT_SEED, OUT_DIR, check, stats
from graftbench.check import TOP_K

#: Set-up runs at least this many times per run, and until it has taken
#: SETUP_MIN_S in total (at most SETUP_MAX_REPEATS times), so that a
#: set-up of a few tens of milliseconds still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15


@dataclass
class RunConfig:
    """One run of one workload."""

    seed: int = DEFAULT_SEED
    #: How long the timed section measures.
    seconds: float = 10.0
    trace: bool = False
    #: Shrinks corpus sizes and query counts (the smoke tests use 1/50).
    scale: float = 1.0
    #: Test hook: damage the reference answers so mismatches must surface.
    corrupt_reference: bool = False

    @property
    def pinned(self) -> bool:
        """True for the inputs ``golden.json`` was written from."""
        return self.seed == DEFAULT_SEED and self.scale == 1.0

    def scaled(self, count: int, floor: int) -> int:
        return max(floor, int(count * self.scale))


def scratch_dir() -> pathlib.Path:
    """Where this process keeps stores and server directories while it
    runs; removed when the workload ends or the run is terminated."""
    return OUT_DIR / f"tmp-{os.getpid()}"


def write_trace(rec, workload: str) -> None:
    rec.write(OUT_DIR / f"trace_{workload}.jsonl")


@dataclass
class RunResult:
    """What one run measured.  ``metrics`` maps a name from
    ``BENCHMARK.json`` to its value; ``notes`` carries what the numbers
    need to be read (sample counts, sizes, policies)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """A workload's generated inputs and their reference answers."""

    collection: object
    #: The query texts in mix order.
    texts: list[str]
    #: The ``(text, scheme)`` operations of one pass, in order.
    keys: list[tuple[str, str]]
    #: key -> canonical-plan answer.
    reference: dict

    @classmethod
    def of(cls, collection, texts, keys) -> "Prepared":
        """Inputs plus the reference answer of every key."""
        reference = check.reference_answers(
            check.reference_engine(collection), keys, TOP_K
        )
        return cls(collection, texts, keys, reference)


def repeat_setup(
    build: Callable[[], object],
    teardown: Callable[[object], None] = lambda state: None,
):
    """Set up several times, keeping the last state.

    Returns ``(state, median seconds)``.  Each earlier state is torn down
    (dropped, when nothing else needs doing) before the next is built, so
    peak memory holds one at a time.
    """
    times: list[float] = []
    state = None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        if state is not None:
            teardown(state)
            state = None
        # Collect what the previous state and the reference computation
        # left behind now, not at some point inside the timed build.
        gc.collect()
        started = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - started)
    return state, stats.median(times)


def maybe_corrupt(cfg: RunConfig, reference: dict) -> None:
    """Under the test hook, append a document no corpus holds to every
    reference answer, so that every checked operation must mismatch."""
    if cfg.corrupt_reference:
        for key, (ids, scores) in reference.items():
            reference[key] = (ids + (10**9,), scores + (0.0,))


@dataclass
class LoopStats:
    """What a closed loop of operations completed, pass by pass."""

    #: Per pass: seconds of every operation that returned (right or wrong).
    passes: list[list[float]] = field(default_factory=list)
    #: Per pass: wall seconds, and answers differing from the reference.
    walls: list[float] = field(default_factory=list)
    wrongs: list[int] = field(default_factory=list)
    #: Operations that raised.
    errors: int = 0

    @property
    def latencies(self) -> list[float]:
        return [seconds for one in self.passes for seconds in one]

    @property
    def attempted(self) -> int:
        return sum(len(one) for one in self.passes) + self.errors

    @property
    def failed(self) -> int:
        return sum(self.wrongs) + self.errors

    def metrics(self, tail: float) -> dict[str, float]:
        """The three operation metrics, each the median over passes of the
        pass's own value: median latency, tail latency, and correct
        completions per second of wall.  Every pass does the same work, and
        a median over passes shrugs off a burst of interference that a
        percentile over the pooled samples would report as the tail."""
        return {
            "op_p50_ms": 1000.0 * stats.median(
                stats.percentile(one, 0.50) for one in self.passes),
            "op_tail_ms": 1000.0 * stats.median(
                stats.percentile(one, tail) for one in self.passes),
            "ops_per_s": stats.median(
                (len(one) - wrong) / wall
                for one, wall, wrong in zip(self.passes, self.walls, self.wrongs)),
        }


def tail_notes(samples: int, tail: float) -> dict:
    """What a reader needs to judge a tail percentile."""
    return {
        "samples": samples,
        "tail": f"p{tail * 100:g}",
        "tail_supported": stats.supported_tail(samples, tail),
    }


def search_passes(
    engine, keys, reference: dict, seconds: float, *, executor: str = "serial"
) -> LoopStats:
    """Closed loop, one caller: whole passes over ``keys`` until
    ``seconds`` have elapsed (at least one pass).

    Every answer is compared with ``reference`` right after its clock
    stops; a wrong answer, an engine error or an answer produced by
    another executor than ``executor`` counts as failed.
    """
    out = LoopStats()
    clock = time.perf_counter
    started = clock()
    while True:
        latencies: list[float] = []
        wrong = 0
        pass_started = clock()
        for key in keys:
            t0 = clock()
            try:
                outcome = engine.search(key[0], scheme=key[1], top_k=TOP_K)
            except GraftError:
                out.errors += 1
                continue
            latencies.append(clock() - t0)
            if outcome.executor != executor or not check.same_answer(
                check.answer_of(outcome.results), reference[key]
            ):
                wrong += 1
        now = clock()
        out.passes.append(latencies)
        out.walls.append(now - pass_started)
        out.wrongs.append(wrong)
        if now - started >= seconds:
            return out
