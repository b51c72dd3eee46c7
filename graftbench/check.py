"""Correctness: reference rankings and the comparison every answer gets.

The reference for a ``(query, scheme)`` key is the ranking of the
*canonical* score-isolated plan (``search(optimize=False)``) on a serial
engine over the object index — the plan Definition 1 says every optimized
plan must agree with.  On small corpora a seeded sample is additionally
checked against the independent MCalc oracle.
"""

from __future__ import annotations

import random

from repro import SearchEngine
from repro.exec.cache import CacheConfig
from repro.sa.reference import rank_with_oracle
from repro.sa.registry import get_scheme

#: An answer: (doc ids in rank order, their scores).
Answer = tuple[tuple[int, ...], tuple[float, ...]]

REL_TOL = 1e-9
#: Every operation of every workload asks for this many results.
TOP_K = 10


def answer_of(results) -> Answer:
    """The comparable form of an iterable of ``SearchResult``."""
    return answer_of_pairs([(r.doc_id, r.score) for r in results])


def answer_of_pairs(pairs) -> Answer:
    """The comparable form of ranked ``(doc_id, score)`` pairs."""
    return tuple(d for d, _ in pairs), tuple(s for _, s in pairs)


def answer_of_payload(payload: dict) -> Answer:
    """The comparable form of a ``/search`` response body."""
    rows = payload.get("results", ())
    return (
        tuple(row["doc_id"] for row in rows),
        tuple(row["score"] for row in rows),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def same_answer(got: Answer, want: Answer) -> bool:
    """Scores within ``REL_TOL`` relative, rank by rank; doc ids and order
    exactly, except among documents whose scores tie within ``REL_TOL``.

    Two plans add the same terms in different orders, so two documents with
    the same score on paper can differ in the last bit under one plan and
    not the other, and the engine's tie-break (by doc id) then orders them
    differently: about one key in ten thousand.  Within such a run of tied
    ranks the same documents must appear, in any order; a run cut off by
    ``TOP_K`` may also end with other documents of that score.
    """
    ids, scores = want
    if got[0] == ids:
        return all(map(_close, got[1], scores))
    if len(got[0]) != len(ids) or len(set(got[0])) != len(ids):
        return False
    if not all(map(_close, got[1], scores)):
        return False
    start = 0
    for end in range(1, len(ids) + 1):
        if end < len(ids) and _close(scores[end - 1], scores[end]):
            continue
        cut_off = end == len(ids) == TOP_K
        if not cut_off and set(got[0][start:end]) != set(ids[start:end]):
            return False
        start = end
    return True


def reference_engine(collection) -> SearchEngine:
    """A serial, cache-less engine over ``collection``'s object index."""
    return SearchEngine(collection, executor="serial", cache=CacheConfig.off())


def reference_answers(engine: SearchEngine, keys, top_k: int) -> dict:
    """Canonical-plan ranking for every ``(text, scheme)`` in ``keys``."""
    return {
        key: answer_of(
            engine.search(key[0], scheme=key[1], top_k=top_k, optimize=False)
        )
        for key in keys
    }


def oracle_mismatches(
    engine: SearchEngine, reference: dict, top_k: int, seed: int, sample: int = 64
) -> int:
    """How many of a seeded ``sample`` of reference answers the
    brute-force MCalc oracle disagrees with (exponential: small corpora
    only)."""
    keys = sorted(reference)
    picked = random.Random(seed).sample(keys, min(sample, len(keys)))
    ctx = engine.scoring_context()
    wrong = 0
    for text, scheme_name in picked:
        ranked = rank_with_oracle(
            get_scheme(scheme_name), ctx, engine.parse(text), engine.collection
        )[:top_k]
        if not same_answer(answer_of_pairs(ranked), reference[(text, scheme_name)]):
            wrong += 1
    return wrong
