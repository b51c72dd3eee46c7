"""Seeded inputs: the synthetic corpus, its raw texts and its digest.

Everything a workload feeds the system is a pure function of
``(--seed, size)``; the program under test receives only these generated
inputs, never the seed.
"""

from __future__ import annotations

import hashlib

from repro.corpus.collection import DocumentCollection
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    generate_corpus,
    paper_themes,
)


def corpus(num_docs: int, seed: int) -> DocumentCollection:
    """The synthetic collection of ``num_docs`` documents for ``seed``."""
    return generate_corpus(SyntheticCorpusConfig(num_docs=num_docs, seed=seed))


def raw_texts(collection: DocumentCollection) -> list[str]:
    """One raw text per document; the default analyzer maps each back to
    exactly the document's tokens."""
    return [" ".join(doc.tokens) for doc in collection]


def corpus_digest(collection: DocumentCollection) -> str:
    """SHA-256 of the corpus token stream (documents in id order)."""
    digest = hashlib.sha256()
    for doc in collection:
        digest.update(" ".join(doc.tokens).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def queries_digest(texts: list[str]) -> str:
    """SHA-256 of a query list, order included."""
    return hashlib.sha256("\n".join(texts).encode("ascii")).hexdigest()


def planted_phrases() -> list[str]:
    """The multi-word topics the corpus generator plants contiguously."""
    phrases = {
        " ".join(topic.tokens)
        for theme in paper_themes()
        for topic in theme.topics
        if len(topic.tokens) > 1
    }
    return sorted(phrases)
