"""The paper's evaluation workload (Section 8).

Eight queries over Wikipedia, reproduced verbatim in the shorthand syntax;
the corpus substitute is the synthetic generator of
:mod:`repro.corpus.synthetic`, whose planted topics give these queries
non-trivial matches and Figure-1-like selectivity skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.corpus.collection import DocumentCollection
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.index.builder import build_index
from repro.index.packed import PackedIndex
from repro.mcalc.ast import Query
from repro.mcalc.parser import parse_query

#: The eight evaluation queries, exactly as printed in Section 8.
PAPER_QUERIES: dict[str, str] = {
    "Q4": "san francisco fault line",
    "Q5": "dinosaur species list (image | picture | drawing | illustration)",
    "Q6": '"orange county convention center" orlando',
    "Q7": '"san francisco" "fault line"',
    "Q8": '(windows emulator)WINDOW[50] (foss | "free software")',
    "Q9": "(free wireless internet)PROXIMITY[10] service",
    "Q10": "arizona ((fishing | hunting) (rules | regulations))WINDOW[20]",
    "Q11": '"rick warren" (obama inauguration)PROXIMITY[4] '
           "(controversy invocation)PROXIMITY[15]",
}

#: Queries the rigid baselines can run ("Lucene and Terrier do not support
#: Q8 or Q10 because they do not support the WINDOW predicate").
RIGID_SUPPORTED = ("Q4", "Q5", "Q6", "Q7", "Q9", "Q11")


def default_corpus_config(num_docs: int = 4000, seed: int = 20110612) -> SyntheticCorpusConfig:
    """The benchmark corpus configuration (laptop-scale Wikipedia stand-in)."""
    return SyntheticCorpusConfig(num_docs=num_docs, seed=seed)


@dataclass
class BenchFixture:
    """A built benchmark environment: corpus, index, parsed queries."""

    collection: DocumentCollection
    index: PackedIndex
    queries: dict[str, Query]

    @property
    def num_docs(self) -> int:
        return len(self.collection)


@lru_cache(maxsize=4)
def bench_fixture(num_docs: int = 4000, seed: int = 20110612) -> BenchFixture:
    """Build (and cache) the benchmark fixture for a corpus size."""
    collection = generate_corpus(default_corpus_config(num_docs, seed))
    index = build_index(collection)
    queries = {
        name: parse_query(text, collection.analyzer)
        for name, text in PAPER_QUERIES.items()
    }
    return BenchFixture(collection, index, queries)
