"""Shared fixtures for the GRAFT reproduction test suite."""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from repro.corpus.collection import DocumentCollection
from repro.corpus.wine import wine_collection, wine_stats_overrides
from repro.index.builder import FlatIndex, build_index
from repro.sa.context import IndexScoringContext, OverrideScoringContext
from repro.sa.registry import get_scheme

#: Names of the seven built-in schemes (Section 7).
SCHEME_NAMES = (
    "anysum",
    "sumbest",
    "lucene",
    "join-normalized",
    "event-model",
    "meansum",
    "bestsum-mindist",
)


def make_tiny_collection() -> DocumentCollection:
    """A small hand-written collection with phrases, repeats and overlap,
    designed so the example queries in tests produce varied match tables."""
    col = DocumentCollection()
    col.add_text("the quick brown fox jumps over the lazy dog")
    col.add_text("a quick quick fox and a slow dog walk home")
    col.add_text("dogs and foxes are not the same animal")
    col.add_text("quick release fox terrier dog show dog fox")
    col.add_text("quick fox quick fox dog dog dog lazy")
    col.add_text("nothing relevant here at all just filler words")
    col.add_text("the brown dog naps while the brown fox runs quick")
    return col


#: Query texts exercising conjunction, phrases, disjunction (with and
#: without phrases inside), n-ary predicates and negation.
TINY_QUERIES = (
    "quick fox",
    '"quick fox"',
    "quick (fox | dog)",
    "(quick dog)PROXIMITY[4] fox",
    'quick (fox | "lazy dog") show',
    "(quick fox dog)WINDOW[6]",
    "(quick fox)ORDER",
    "fox -terrier",
)


#: The two ways an engine comes to hold its index: built in memory by the
#: index builder, or loaded from a store generation (a ``PackedIndex``
#: over the verified ``index.pk`` bytes).  Engine fixtures parametrized
#: over this run every assertion against both.
ENGINE_KINDS = ("memory", "reloaded")


def engine_as(kind: str, engine, tmp_path):
    """``engine`` itself, or what ``save`` → ``load`` makes of it."""
    if kind == "memory":
        return engine
    from repro.api import SearchEngine

    engine.save(tmp_path / "reloaded")
    return SearchEngine.load(tmp_path / "reloaded")


#: The index files of a generation written before ``index.pk`` existed.
#: Nothing decodes them; they only have to be there and be checksummed.
OLD_INDEX_FILES = {"meta.json": b"{}", "postings.npz": b"old"}


def write_old_generation(path, collection: DocumentCollection) -> None:
    """Checkpoint ``collection`` under ``path`` in the layout from before
    the packed blob was the store's index file: documents and titles,
    the old index files, no ``index.pk``."""
    from repro.index.store import INDEX_FILE, IndexStore, engine_payload

    payload = engine_payload(build_index(collection), collection)
    del payload[INDEX_FILE]
    store = IndexStore(path)
    with store.lock():
        store.checkpoint(
            {**payload, **OLD_INDEX_FILES}, doc_count=len(collection)
        )


def reference_index(documents) -> dict[str, dict[int, list[int]]]:
    """The inverted index by its definition, one document at a time:
    ``{term: {doc id: [offsets]}}`` from each ``Document.tokens``."""
    by_term: dict[str, dict[int, list[int]]] = {}
    for doc in documents:
        for offset, term in enumerate(doc.tokens):
            by_term.setdefault(term, {}).setdefault(doc.doc_id, []).append(offset)
    return by_term


def assert_index_matches_documents(index, documents) -> None:
    """``index`` is exactly the inverted index of ``documents``: both
    views of every term, every lookup, the statistics and the sentence
    starts agree with :func:`reference_index`, and every cell the
    executor reads is a builtin int."""
    docs = list(documents)
    by_term = reference_index(docs)
    assert set(index.terms) == set(by_term)
    assert index.vocabulary_size() == len(by_term)
    for term, by_doc in by_term.items():
        doc_ids = sorted(by_doc)
        offsets = [tuple(by_doc[d]) for d in doc_ids]
        # Frame-head answers first, then the decoded views.
        assert index.document_frequency(term) == len(doc_ids)
        assert index.total_positions(term) == sum(map(len, offsets))
        postings = index.postings(term)
        assert index.terms[term] is postings
        assert postings.doc_ids.tolist() == postings.doc_id_list == doc_ids
        assert list(postings.offsets) == offsets
        assert postings.document_frequency == len(doc_ids)
        assert postings.total_positions == sum(map(len, offsets))
        counts = index.doc_terms.get(term)
        assert list(counts.doc_id_seq) == doc_ids
        assert list(counts.count_seq) == [len(o) for o in offsets]
        for cell in (
            *chain.from_iterable(postings.offsets),
            *postings.doc_id_list,
            *counts.doc_id_seq,
            *counts.count_seq,
        ):
            assert type(cell) is int
        for doc in docs:
            want = tuple(by_doc.get(doc.doc_id, ()))
            assert postings.positions_in(doc.doc_id) == want
            assert postings.term_frequency(doc.doc_id) == len(want)
            assert index.term_frequency(doc.doc_id, term) == len(want)
    assert index.num_docs == index.stats.num_docs == len(docs)
    assert index.stats.doc_lengths.tolist() == [len(doc.tokens) for doc in docs]
    assert [index.sentence_starts_of(doc.doc_id) for doc in docs] == [
        tuple(doc.sentence_starts) for doc in docs
    ]
    assert index.sentence_starts_of(len(docs)) == ()


def flat_index(**terms: list[tuple[int, tuple[int, ...]]]) -> FlatIndex:
    """The arrays the blob writer encodes, holding ``term -> [(doc id,
    offsets), ...]`` as given (unchecked, in argument order) over one
    empty document."""
    entries = list(terms.values())
    return FlatIndex(
        terms=list(terms),
        doc_bounds=np.cumsum([0, *map(len, entries)]),
        doc_ids=np.array(
            [doc for entry in entries for doc, _ in entry], dtype=np.int64
        ),
        counts=np.array(
            [len(run) for entry in entries for _, run in entry], dtype=np.int64
        ),
        positions=np.array(
            [p for entry in entries for _, run in entry for p in run],
            dtype=np.int64,
        ),
        doc_lengths=np.zeros(1, dtype=np.int64),
        sentence_starts=[()],
    )


@pytest.fixture(scope="session")
def tiny_collection() -> DocumentCollection:
    return make_tiny_collection()


@pytest.fixture(scope="session")
def tiny_index(tiny_collection):
    return build_index(tiny_collection)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_index):
    return IndexScoringContext(tiny_index)


@pytest.fixture(scope="session")
def wine_env():
    """(collection, index, ctx) reproducing the paper's Figure 1 numbers."""
    col = wine_collection()
    idx = build_index(col)
    ov = wine_stats_overrides()
    ctx = OverrideScoringContext(
        IndexScoringContext(idx),
        collection_size=ov["collection_size"],
        document_frequency=ov["document_frequency"],
    )
    return col, idx, ctx


@pytest.fixture(params=SCHEME_NAMES)
def scheme(request):
    """Parametrized over all seven built-in schemes."""
    return get_scheme(request.param)


def assert_same_ranking(got, want, tol=1e-7):
    """Rankings agree as doc -> score maps (ties may permute)."""
    gs, ws = dict(got), dict(want)
    assert len(got) == len(gs), "duplicate documents in results"
    assert len(want) == len(ws), "duplicate documents in expectation"
    assert set(gs) == set(ws), (
        f"document sets differ: extra={sorted(set(gs) - set(ws))[:5]} "
        f"missing={sorted(set(ws) - set(gs))[:5]}"
    )
    for doc, want_score in ws.items():
        got_score = gs[doc]
        assert got_score == pytest.approx(want_score, rel=tol, abs=tol), (
            f"doc {doc}: got {got_score}, want {want_score}"
        )


def plan_has_block(plan) -> bool:
    """Whether an untraced run of ``plan`` compiles a pre-counted block
    (:class:`repro.exec.block_ops.PreCountBlockOp`)."""
    from repro.exec.block_ops import is_precount_block

    return any(is_precount_block(node) for node in plan.walk())


#: Counters a block bills exactly as the row tree does, and counters it
#: may bill lower (work the row tree forms and the block never does).
BLOCK_EXACT = ("positions_scanned", "positions_by_keyword", "rows_grouped",
               "limit_tripped")
BLOCK_AT_MOST = ("doc_entries_scanned", "rows_joined", "rows_charged")


def assert_block_metrics(block, rows) -> None:
    """``ExecutionMetrics`` of a block plan against the row tree's."""
    got, want = block.as_dict(), rows.as_dict()
    assert got.keys() == set(BLOCK_EXACT + BLOCK_AT_MOST)
    for name in BLOCK_EXACT:
        assert got[name] == want[name], name
    for name in BLOCK_AT_MOST:
        assert got[name] <= want[name], name
