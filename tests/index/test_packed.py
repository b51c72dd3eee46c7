"""Packed postings codec: round-trip fidelity, corruption rejection,
and score equivalence across reopened and sharded indexes.

The packed blob is every index: what ``build_index`` serves, the
store's index file, what a loaded engine serves from and what worker
processes attach to.  So its contract is absolute: decode must
reproduce the documents' inverted index *exactly* (every doc id, every
position tuple, every statistic), every execution over a reopened or
sharded :class:`repro.index.packed.PackedIndex` must score
bit-identical to the index it came from, and any damaged buffer —
truncated anywhere, or a byte flipped inside any checksummed region —
must be rejected with :class:`repro.errors.IndexCorruptionError` rather
than decoded into silently-wrong postings.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.collection import DocumentCollection
from repro.errors import IndexCorruptionError, IndexError_
from repro.exec.engine import execute, make_runtime
from repro.exec.parallel import execute_sharded
from repro.graft.optimizer import Optimizer
from repro.index.builder import build_index
from repro.index.packed import MAGIC, PackedIndex, _pack, pack_index
from repro.index.shard import ShardedIndex, ShardView
from repro.mcalc.parser import parse_query
from repro.sa.context import IndexScoringContext
from repro.sa.registry import get_scheme

from tests.conftest import (
    SCHEME_NAMES,
    TINY_QUERIES,
    assert_index_matches_documents,
    flat_index,
    reference_index,
)


@pytest.fixture(scope="module")
def blob(tiny_index) -> bytes:
    return pack_index(tiny_index)


@pytest.fixture(scope="module")
def packed(blob) -> PackedIndex:
    return PackedIndex(blob, verify=True)


# -- round trip -----------------------------------------------------------


def test_round_trip_statistics(tiny_collection, packed):
    lengths = [doc.length for doc in tiny_collection]
    assert packed.num_docs == len(tiny_collection)
    assert packed.vocabulary_size() == len(tiny_collection.vocabulary())
    assert packed.stats.doc_lengths.tolist() == lengths
    assert packed.stats.avg_doc_length == sum(lengths) / len(lengths)
    for doc in tiny_collection:
        assert packed.sentence_starts_of(doc.doc_id) == doc.sentence_starts


def test_round_trip_every_term_every_entry(tiny_collection, packed):
    assert_index_matches_documents(packed, tiny_collection)


def test_absent_term_is_empty(packed):
    assert packed.document_frequency("zzz-absent") == 0
    assert packed.total_positions("zzz-absent") == 0
    assert len(packed.postings("zzz-absent")) == 0
    assert packed.term_frequency(0, "zzz-absent") == 0
    assert packed.doc_terms.get("zzz-absent") is None


def test_doc_terms_round_trip(tiny_collection, packed):
    for term, by_doc in reference_index(tiny_collection).items():
        got = packed.doc_terms.get(term)
        assert list(got.doc_ids) == sorted(by_doc)
        assert list(got.counts) == [len(by_doc[d]) for d in sorted(by_doc)]


def test_shard_postings_are_the_entry_range_of_their_documents(
    tiny_collection, packed
):
    """A shard's postings of a term are the term's entries for the
    documents in the shard's range, and nothing else."""
    n = len(tiny_collection)
    for lo, hi in ((0, n), (0, 3), (2, 5), (4, n), (3, 3)):
        shard = ShardView(packed, 0, lo, hi)
        for term, by_doc in reference_index(tiny_collection).items():
            inside = [d for d in sorted(by_doc) if lo <= d < hi]
            view = shard.postings(term)
            assert list(view.doc_ids) == inside
            assert list(view.offsets) == [tuple(by_doc[d]) for d in inside]
            assert view.document_frequency == len(inside)
            assert view.total_positions == sum(len(by_doc[d]) for d in inside)
            counts = shard.doc_terms.get(term)
            assert list(counts.count_seq) == [len(by_doc[d]) for d in inside]
            for doc_id in by_doc:
                assert view.positions_in(doc_id) == (
                    tuple(by_doc[doc_id]) if doc_id in inside else ()
                )


def test_empty_collection_round_trips():
    index = build_index(DocumentCollection())
    packed = PackedIndex(pack_index(index), verify=True)
    assert packed.num_docs == 0
    assert packed.vocabulary_size() == 0
    assert len(packed.postings("anything")) == 0
    assert packed.sentence_starts_of(0) == ()


#: SHA-256 of ``pack_index(build_index(tiny_collection))`` at the commit
#: before the packer was vectorized.  The blob is an on-disk format now:
#: the same index must keep producing the same bytes.
TINY_BLOB_SHA256 = (
    "74bd77b8eacd127759682b5a305a8bc5d23b0ec669e046d8e398ceaf66a554a9"
)


def test_blob_bytes_are_pinned(blob):
    assert len(blob) == 2136
    assert hashlib.sha256(blob).hexdigest() == TINY_BLOB_SHA256


def test_packing_a_packed_index_returns_its_own_bytes(blob, packed):
    # Opened over exactly its bytes, an index hands those back uncopied.
    assert pack_index(packed) is packed.blob is blob
    # Over a buffer longer than the blob (shared-memory segments round
    # their size up), or one that is not ``bytes``, it copies them out.
    assert pack_index(PackedIndex(blob + b"\x00" * 24)) == blob
    assert PackedIndex(bytearray(blob)).blob == blob


def test_a_closed_engine_frees_its_index_without_the_cyclic_collector(
    tmp_path, tiny_collection
):
    """A packed index is not in a reference cycle (its mapping views are
    made on access), so the blob and its decoded frames go as soon as
    the last engine holding them does — not at the next full collection."""
    import gc
    import weakref

    from repro.api import SearchEngine

    SearchEngine(tiny_collection).save(tmp_path / "s")
    gc.collect()
    gc.disable()
    try:
        engine = SearchEngine.open(tmp_path / "s")
        assert engine.search("quick fox")
        assert engine.index.doc_terms.get("fox") is not None
        assert len(engine.index.terms) == len(tiny_collection.vocabulary())
        index = weakref.ref(engine.index)
        assert isinstance(index(), PackedIndex)
        engine.close()
        del engine
        assert index() is None
    finally:
        gc.enable()


_FINE = [(0, (0,)), (7, (3, 4))]


@pytest.mark.parametrize("doc_ids, offsets, message", [
    ([0, 2**32], [(1,), (2,)], "'bad'.*doc ids outside"),
    ([-1, 3], [(1,), (2,)], "'bad'.*doc ids outside"),
    ([5, 3], [(1,), (2,)], "'bad'.*strictly increasing"),
    ([4, 4], [(1,), (2,)], "'bad'.*strictly increasing"),
    ([1, 2], [(1,), (2**32,)], "'bad'.*positions outside"),
    ([1, 2], [(-7,), (2,)], "'bad'.*positions outside"),
])
def test_unpackable_values_rejected_at_encode(doc_ids, offsets, message):
    """Range and ordering checks survive the whole-index vectorized
    encode, and still name the offending term — here the middle of
    three, so a first-gap fix-up that leaked across terms would show."""
    bad = list(zip(doc_ids, offsets))
    with pytest.raises(IndexError_, match=message):
        _pack(flat_index(aaa=_FINE, bad=bad, zzz=_FINE))


def test_term_boundaries_survive_the_whole_index_encode():
    """A term whose first doc id is below the previous term's last one,
    an empty term, and an entry with no positions all round-trip."""
    terms = {
        "a": [(3, (1,)), (9, (2, 5))],
        "b": [],
        "c": [(0, ())],
        "d": [(0, (2**32 - 1,)), (2**32 - 1, (0,))],
    }
    packed = PackedIndex(_pack(flat_index(**terms)), verify=True)
    for term, entries in terms.items():
        decoded = packed.postings(term)
        assert [(int(d), o) for d, o in zip(decoded.doc_ids, decoded.offsets)] \
            == entries


# -- corruption rejection -------------------------------------------------


def _header_len(blob: bytes) -> int:
    (_version, hlen) = struct.unpack_from("<II", blob, 8)
    return hlen


def test_truncation_rejected_at_every_cut(blob):
    hlen = _header_len(blob)
    cuts = sorted({
        0, 4, 8, 12, 15,                 # inside the fixed header
        16 + hlen // 2,                   # inside the JSON directory
        16 + hlen + 2,                    # inside the header CRC
        len(blob) // 2,                   # mid-payload
        len(blob) - 1,                    # one byte short
    })
    for cut in cuts:
        with pytest.raises(IndexCorruptionError):
            PackedIndex(blob[:cut], verify=True)


def test_not_a_packed_blob_rejected(blob):
    with pytest.raises(IndexCorruptionError):
        PackedIndex(b"\x00" * len(blob))
    with pytest.raises(IndexCorruptionError):
        PackedIndex(b"NOTPACK1" + blob[8:])
    # Unsupported version is corruption too, not a silent misread.
    bumped = bytearray(blob)
    bumped[8] = 99
    with pytest.raises(IndexCorruptionError):
        PackedIndex(bytes(bumped))


def test_flipped_byte_rejected_everywhere_checksummed(blob):
    clean = PackedIndex(blob)
    hlen = _header_len(blob)
    offsets = {
        1,                                # magic
        16,                               # first byte of the JSON header
        16 + hlen - 1,                    # last byte of the JSON header
        16 + hlen,                        # header CRC itself
    }
    # One byte inside every statistics section...
    for rel, size in clean._sections.values():
        if size:
            offsets.add(clean._base + rel + size // 2)
    # ...and, for every term frame: the frame head, the frame body and
    # the frame's own CRC.
    for rel, size in clean._directory.values():
        off = clean._base + rel
        offsets.update({off + 1, off + size // 2, off + size - 2})
    assert MAGIC == blob[:8]
    for off in sorted(offsets):
        mutated = bytearray(blob)
        mutated[off] ^= 0xFF
        with pytest.raises(IndexCorruptionError):
            PackedIndex(bytes(mutated), verify=True)


def _reheadered(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header passed through ``edit`` and the
    header CRC recomputed — byte-intact by every checksum, yet
    describing an impossible index (what a buggy writer produces)."""
    hlen = _header_len(blob)
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    raw = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    head = blob[:8] + struct.pack("<II", 1, len(raw)) + raw
    head += struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF)
    head += b"\x00" * (-len(head) % 8)
    old_base = (16 + hlen + 4 + 7) & ~7
    return head + blob[old_base:]


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("terms"),
    lambda h: h.update(terms=[]),
    lambda h: h.update(num_docs=h["num_docs"] + 1),
    lambda h: h["sections"].pop("doc_lengths"),
    lambda h: h["sections"].update(doc_lengths=[0, 10**9]),
    lambda h: h["sections"].update(sentence_counts=[0, 3]),
    lambda h: h["terms"].update(quick="nonsense"),
    lambda h: h["terms"].update(quick=[0, "x"]),
    lambda h: h["terms"].update(quick=[-8, 64]),
    lambda h: h["terms"].update(quick=[0, 10**9]),
    lambda h: h["terms"].update(quick=h["terms"]["fox"][:1] + [28]),
    lambda h: h.update(payload_size=h["payload_size"] + 8),
])
def test_checksum_valid_but_inconsistent_header_is_corruption(blob, edit):
    """Structural checks a checksum cannot make: every inconsistency is
    an ``IndexCorruptionError`` — never a raw ``KeyError``/``TypeError``/
    ``ValueError``/``struct.error`` — at open or at the first use."""
    with pytest.raises(IndexCorruptionError):
        packed = PackedIndex(_reheadered(blob, edit), verify=True)
        packed.postings("quick").offsets[0]


def test_frame_whose_counts_disagree_with_its_total_is_corruption(blob):
    """A frame that passes its own CRC but whose per-document counts do
    not add up to its position total is rejected when it is decoded."""
    clean = PackedIndex(blob)
    rel, size = clean._directory["quick"]
    off = clean._base + rel
    _magic, n_docs, _n_pos = struct.unpack_from("<IIQ", blob, off)
    mutated = bytearray(blob)
    first_count = off + 16 + 4 * n_docs
    struct.pack_into(
        "<I", mutated, first_count,
        struct.unpack_from("<I", blob, first_count)[0] + 1,
    )
    body = bytes(mutated[off:off + size - 4])
    struct.pack_into("<I", mutated, off + size - 4, zlib.crc32(body))
    packed = PackedIndex(bytes(mutated), verify=True)  # every CRC holds
    with pytest.raises(IndexCorruptionError, match="'quick'.*do not sum"):
        packed.postings("quick")


# -- execution equivalence ------------------------------------------------


def _rows(index, scheme, result, ctx):
    runtime = make_runtime(index, scheme, result.info, ctx)
    return execute(result.plan, runtime)


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_packed_execution_bit_identical(
    tiny_collection, tiny_index, tiny_ctx, packed, scheme_name
):
    scheme = get_scheme(scheme_name)
    packed_ctx = IndexScoringContext(packed)
    for text in TINY_QUERIES:
        query = parse_query(text, tiny_collection.analyzer)
        result = Optimizer(scheme, tiny_index).optimize(query)
        serial = _rows(tiny_index, scheme, result, tiny_ctx)
        over_packed = _rows(packed, scheme, result, packed_ctx)
        assert over_packed == serial, (scheme_name, text)


_VOCAB = ("quick", "fox", "dog", "lazy", "brown", "fence", "run")
_PROPERTY_QUERIES = (
    "quick fox",
    '"quick fox"',
    "quick (fox | dog)",
    "fox -dog",
    "(quick fox)ORDER",
)


@settings(max_examples=25, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=10),
        min_size=1,
        max_size=10,
    ),
    text=st.sampled_from(_PROPERTY_QUERIES),
    scheme_name=st.sampled_from(SCHEME_NAMES),
    shards=st.sampled_from((2, 3)),
)
def test_packed_scores_property(docs, text, scheme_name, shards):
    """serial ≡ serial/reopened ≡ thread-sharded/reopened, exactly."""
    collection = DocumentCollection()
    for words in docs:
        collection.add_text(" ".join(words))
    index = build_index(collection)
    packed = PackedIndex(pack_index(index), verify=True)
    scheme = get_scheme(scheme_name)
    query = parse_query(text, collection.analyzer)
    result = Optimizer(scheme, index).optimize(query)
    serial = _rows(index, scheme, result, IndexScoringContext(index))
    packed_ctx = IndexScoringContext(packed)
    assert _rows(packed, scheme, result, packed_ctx) == serial
    par = execute_sharded(
        ShardedIndex(packed, shards), result.plan, scheme, result.info,
        packed_ctx,
    )
    assert par.results == serial
