"""The input-drift guard.

``golden.json`` pins, for the default seed at full scale, the SHA-256 of
each workload's corpus token stream and query list, and the reference
top-10 of ``warm_engine`` and ``parallel_scan``.  A run on those inputs
stops before measuring anything if ``repro.corpus.synthetic`` or the query
grammar drifted — numbers taken on different inputs must not be compared —
and checks the run-time canonical reference against the pinned answers.
``python -m graftbench run --write-golden`` regenerates the file.
"""

from __future__ import annotations

import json

from graftbench import DEFAULT_SEED, PACKAGE_DIR, check, inputs

GOLDEN_PATH = PACKAGE_DIR / "golden.json"

#: Workloads whose reference answers are pinned as well as their inputs.
PINNED_ANSWERS = ("warm_engine", "parallel_scan")


class GoldenDrift(RuntimeError):
    """The generated inputs or reference answers differ from golden.json."""


def entry(name: str, prepared) -> dict:
    """What golden.json records for one workload."""
    out = {
        "corpus_sha256": inputs.corpus_digest(prepared.collection),
        "queries_sha256": inputs.queries_digest(prepared.texts),
    }
    if name in PINNED_ANSWERS:
        out["reference"] = [
            [text, scheme, list(ids), list(scores)]
            for (text, scheme), (ids, scores) in sorted(prepared.reference.items())
        ]
    return out


def write(entries: dict[str, dict]) -> None:
    text = json.dumps({"seed": DEFAULT_SEED, "workloads": entries})
    # One reference row per line: diffable, and a third the size of an
    # indented dump.
    GOLDEN_PATH.write_text(text.replace('], ["', '],\n["') + "\n", encoding="utf-8")


def verify(name: str, prepared) -> None:
    """Raise :class:`GoldenDrift` unless ``prepared`` matches golden.json."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    want = golden["workloads"].get(name)
    if want is None:
        raise GoldenDrift(f"golden.json has no entry for {name}")
    got = entry(name, prepared)
    for field in ("corpus_sha256", "queries_sha256"):
        if got[field] != want[field]:
            raise GoldenDrift(
                f"{name}: {field} is {got[field]}, golden.json pins "
                f"{want[field]} — the corpus generator or the query grammar "
                f"drifted; rerun with --write-golden only if that is intended"
            )
    for text, scheme, ids, scores in want.get("reference", ()):
        pinned = (tuple(ids), tuple(scores))
        if not check.same_answer(prepared.reference[(text, scheme)], pinned):
            raise GoldenDrift(
                f"{name}: canonical reference for {text!r}/{scheme} differs "
                f"from golden.json"
            )
