"""The seeded query grammar.

Queries are instances of a fixed cycle of templates — keywords,
conjunctions, disjunctions, planted phrases, ``WINDOW[n]`` and
``PROXIMITY[n]`` — whose slots name a *document-frequency stratum* of the
corpus vocabulary.  The grammar fixes which rank of the stratum fills each
slot; the seed decides which corpus that ranking is read from (so the
terms, their postings and every document id differ between seeds) and the
order of the mix.  Shapes and selectivities therefore stay the same from
seed to seed, which is what lets a latency median be compared across
seeds at all: with terms drawn at random inside a stratum the median of a
240-key mix moved by 9 % between seeds on identical code.

Strata are rank bands of the corpus vocabulary sorted by document
frequency.  The eight most frequent terms (stopword-like, ~20 occurrences
per document) are left out: one of them in a conjunction makes the
canonical reference plan's per-document cross product explode, and real
engines drop them at analysis time.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.bench.workload import PAPER_QUERIES
from repro.corpus.collection import DocumentCollection

from graftbench.inputs import planted_phrases

#: Rank boundaries of the strata (ratio ~1.25, so the terms of one stratum
#: differ in document frequency by at most a quarter): stratum i is ranks
#: ``[_BOUNDS[i], _BOUNDS[i + 1])`` of the df-sorted vocabulary.
_BOUNDS = (8, 10, 12, 15, 19, 24, 30, 38, 48, 60, 75, 94, 118, 148, 185,
           231, 289, 361, 451, 564, 705)

#: Slot letters -> the strata a slot may draw from.  H: document frequency
#: roughly 80 %..30 %; M: 30 %..12 %; L: 12 %..2 %; S: any single keyword.
_GROUPS = {"H": tuple(range(0, 8)), "M": tuple(range(8, 13)),
           "L": tuple(range(13, 20)), "S": tuple(range(8, 20))}

#: The general mix: one template per paper-query shape.
TEMPLATES = (
    "{H} {H}",
    "{H} {H} {M}",
    "{H} ({M} | {M})",
    "{M} | {L}",
    '"{P}" ({H} | {H})',
    "({H} {H})WINDOW[{N}]",
    "({H} {M})PROXIMITY[{N}]",
    "{H} ({H} {M})WINDOW[{N}]",
    "({H} | {M}) ({H} | {M})",
    "{S}",
    '{M} | "{P}"',
)

#: Scan-heavy shapes over high-df terms only (``parallel_scan``).
SCAN_TEMPLATES = (
    "({H} {H})WINDOW[{N}]",
    "({H} {H} {H})PROXIMITY[{N}]",
    "{H} | {H} | {H}",
    "({H} | {H}) ({H} | {H})",
)

_WINDOWS = (10, 20, 50)

PAPER = tuple(PAPER_QUERIES.values())


def vocabulary_by_df(collection: DocumentCollection) -> list[str]:
    """The collection's terms, most documents first (ties by the term)."""
    df: Counter[str] = Counter()
    for doc in collection:
        df.update(set(doc.tokens))
    return sorted(df, key=lambda t: (-df[t], t))


def generate(
    collection: DocumentCollection, count: int, seed: int, templates=TEMPLATES
) -> list[str]:
    """``count`` distinct query texts over ``collection``'s vocabulary, in
    an order shuffled by ``seed``.

    Instance ``k`` uses template ``k mod len(templates)``; successive
    instances of a template rotate each slot through the strata of its
    group and step through the ranks of the stratum.
    """
    ranked = vocabulary_by_df(collection)
    if len(ranked) < 2 * _BOUNDS[-1]:
        raise ValueError(
            f"vocabulary of {len(ranked)} terms is too small for the strata "
            f"(need {2 * _BOUNDS[-1]})"
        )
    phrases = planted_phrases()
    seen: set[str] = set()
    out: list[str] = []
    for k in range(count):
        template = templates[k % len(templates)]
        turn = k // len(templates)
        # A repeat (two small strata cycling in step) moves the last
        # keyword to the next rank until the text is new.
        for bump in range(_BOUNDS[-1]):
            text = _fill(template, turn, bump, ranked, phrases)
            if text not in seen:
                break
        else:
            raise ValueError(f"no fresh instance of {template!r} at {k}")
        seen.add(text)
        out.append(text)
    random.Random(seed).shuffle(out)
    return out


def _fill(template, turn, bump, ranked, phrases) -> str:
    parts = template.split("{")
    slots = [part.split("}", 1) for part in parts[1:]]
    last_keyword = max(
        i for i, (letter, _) in enumerate(slots) if letter in _GROUPS
    )
    text = [parts[0]]
    for slot, (letter, rest) in enumerate(slots):
        if letter == "N":
            value = str(_WINDOWS[turn % len(_WINDOWS)])
        elif letter == "P":
            value = phrases[(turn + slot) % len(phrases)]
        else:
            group = _GROUPS[letter]
            stratum = group[(turn + slot) % len(group)]
            lo, hi = _BOUNDS[stratum], _BOUNDS[stratum + 1]
            rank = lo + (turn // len(group) + 3 * slot) % (hi - lo)
            if slot == last_keyword:
                rank += bump
            value = ranked[rank]
        text.append(value + rest)
    return "".join(text)
