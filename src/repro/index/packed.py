"""Packed postings: the one index format — built, persisted, served, shared.

Every index is **one flat byte blob** in the layout this module owns:

* a checksum-framed header (magic, version, JSON term directory);
* three statistics sections (document lengths, sentence-start counts
  and values) readable zero-copy via ``np.frombuffer``;
* one struct-framed **term frame** per term, holding delta-encoded
  sorted doc ids, per-document position counts, and the concatenated
  absolute positions — each frame carrying its own CRC32, mirroring
  the WAL's torn-vs-corrupt framing (:mod:`repro.index.store.wal`).

The blob is what :func:`repro.index.builder.build_index` makes of a
collection, the store's index file (``index.pk`` in every generation,
:mod:`repro.index.store`), what a loaded engine serves queries from,
and — because it is position-independent bytes — what a sealed
generation publishes into ``multiprocessing.shared_memory`` for every
worker process to attach read-only (:mod:`repro.exec.procpool`): no
second codec, no pickling, no per-worker heap copy, and no re-encoding
between builder, disk, engine and workers (:func:`pack_index` of a
:class:`PackedIndex` is its own bytes).

One writer makes every blob: :func:`pack_documents` encodes the
term-sorted arrays of :func:`repro.index.builder.flatten`.

:class:`PackedIndex` is the one index class.  It serves plan execution
and scoring (``postings``, ``doc_terms``, ``stats``,
``sentence_starts_of``, the statistics lookups) through
:class:`repro.index.postings.PositionPostings` and
:class:`repro.index.postings.TermDocumentPostings`, decoded from a term's
frame on its first use: the doc ids materialize with a single
``np.cumsum`` over the delta array, and the offset tuples are cut from
one ``tolist`` of the frame's positions.

All measurements in the paper are taken with index entries cached in RAM
("no measured times include disk access", Section 8), so an in-memory
index reproduces the paper's physical setting faithfully.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.corpus.document import Document
from repro.errors import IndexCorruptionError, IndexError_
from repro.index.builder import FlatIndex, flatten
from repro.index.postings import (
    EMPTY_POSTINGS,
    PositionPostings,
    TermDocumentPostings,
)
from repro.index.stats import CollectionStats

#: Leading magic of a packed index blob.
MAGIC = b"GRAFTPK1"
#: Packed format version (bumped on any layout change).
VERSION = 1

#: Per-term frame head: magic, #docs (u32), #positions (u64).
_FRAME_HEAD = struct.Struct("<IIQ")
_FRAME_MAGIC = 0x31464B50  # b"PKF1" little-endian
_U32 = struct.Struct("<I")
_U32_MAX = 2**32 - 1


def _crc(data, value: int = 0) -> int:
    return zlib.crc32(data, value) & 0xFFFFFFFF


def _align8(n: int) -> int:
    return (n + 7) & ~7


# -- encoding -----------------------------------------------------------------


def _bounds(counts) -> np.ndarray:
    """Run boundaries ``[0, c0, c0+c1, ...]`` for a sequence of counts."""
    counts = np.fromiter(counts, dtype=np.int64)
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _reject(
    bad: np.ndarray, bounds: np.ndarray, terms: list[str], problem: str
) -> None:
    """Raise :class:`IndexError_` naming the first term with a flagged
    value (``bounds`` carve the flat array ``bad`` flags per term)."""
    if bad.any():
        term = terms[int(np.searchsorted(bounds, np.argmax(bad), "right")) - 1]
        raise IndexError_(f"term {term!r}: {problem}")


def _unpackable(values: np.ndarray) -> np.ndarray:
    return (values < 0) | (values > _U32_MAX)


def _pack_frames(flat: FlatIndex) -> Iterator[tuple[str, bytes]]:
    """``(term, checksum-framed frame)`` for every term, in sorted order.

    The whole index is encoded in a handful of array passes — one gap
    array, one count array, one position array — and only slicing and
    the CRC happen per term.
    """
    terms, doc_bounds, doc_ids = flat.terms, flat.doc_bounds, flat.doc_ids
    entry_bounds = np.zeros(len(flat.counts) + 1, dtype=np.int64)
    np.cumsum(flat.counts, out=entry_bounds[1:])
    pos_bounds = entry_bounds[doc_bounds]

    # Gaps between consecutive doc ids; a term's first gap is its first
    # doc id, and every later one must be positive (strictly increasing).
    gaps = np.diff(doc_ids, prepend=np.int64(0))
    firsts = doc_bounds[:-1][np.diff(doc_bounds) > 0]
    gaps[firsts] = doc_ids[firsts]
    unordered = gaps <= 0
    unordered[firsts] = False
    outside = "outside the packable range [0, 2^32)"
    _reject(_unpackable(doc_ids), doc_bounds, terms, f"doc ids {outside}")
    _reject(unordered, doc_bounds, terms, "doc ids must be strictly increasing")
    _reject(
        _unpackable(flat.positions), pos_bounds, terms, f"positions {outside}"
    )
    gap_bytes, count_bytes, pos_bytes = (
        memoryview(array.astype(np.uint32)).cast("B")
        for array in (gaps, flat.counts, flat.positions)
    )
    doc_cuts = (4 * doc_bounds).tolist()
    pos_cuts = (4 * pos_bounds).tolist()
    for i, term in enumerate(terms):
        a, b = doc_cuts[i], doc_cuts[i + 1]
        c, d = pos_cuts[i], pos_cuts[i + 1]
        body = b"".join(
            (
                _FRAME_HEAD.pack(_FRAME_MAGIC, (b - a) // 4, (d - c) // 4),
                gap_bytes[a:b],
                count_bytes[a:b],
                pos_bytes[c:d],
            )
        )
        yield term, body + _U32.pack(_crc(body))


def pack_index(index: PackedIndex) -> bytes:
    """The packed blob of ``index``: the bytes it was opened over, as
    they are (an index already is its blob; nothing is re-encoded)."""
    return index.blob


def pack_documents(documents: Iterable[Document]) -> bytes:
    """The packed blob of ``documents``, encoded from
    :func:`repro.index.builder.flatten`'s arrays.

    The blob is self-describing and position-independent: header
    (magic + version + JSON directory + CRC), then 8-aligned payload
    sections.  Raises :class:`repro.errors.IndexError_` when the ids
    are not dense and ascending, or a value does not fit the
    fixed-width layout (offsets >= 2^32).
    """
    return _pack(flatten(documents))


def _pack(flat: FlatIndex) -> bytes:
    """The one blob writer: ``flat``'s arrays as a packed blob."""
    num_docs = len(flat.doc_lengths)
    doc_lengths = np.ascontiguousarray(flat.doc_lengths, dtype=np.int64)
    sent = flat.sentence_starts
    if len(sent) != num_docs:
        raise IndexError_(
            f"sentence_starts covers {len(sent)} docs, stats say {num_docs}"
        )
    sent_bounds = _bounds(map(len, sent))
    sent_counts = np.diff(sent_bounds).astype(np.uint32)
    try:
        sent_values = np.fromiter(
            chain.from_iterable(sent), dtype=np.uint32,
            count=int(sent_bounds[-1]),
        )
    except (OverflowError, ValueError) as exc:
        raise IndexError_(
            f"sentence offsets outside the packable range: {exc}"
        ) from None

    chunks: list[bytes] = []
    size = 0

    def _append(data: bytes) -> list[int]:
        """Add ``data`` 8-aligned; its ``[offset, size]`` directory entry."""
        nonlocal size
        pad = _align8(size) - size
        chunks.append(b"\x00" * pad)
        chunks.append(data)
        entry = [size + pad, len(data)]
        size += pad + len(data)
        return entry

    sections: dict[str, list[int]] = {}
    sections_crc = 0
    for name, array in (
        ("doc_lengths", doc_lengths),
        ("sentence_counts", sent_counts),
        ("sentence_values", sent_values),
    ):
        data = array.tobytes()
        sections[name] = _append(data)
        sections_crc = _crc(data, sections_crc)
    terms = {term: _append(frame) for term, frame in _pack_frames(flat)}

    header = json.dumps(
        {
            "num_docs": num_docs,
            "payload_size": size,
            "sections": sections,
            "sections_crc": sections_crc,
            "terms": terms,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    head = bytearray()
    head += MAGIC
    head += struct.pack("<II", VERSION, len(header))
    head += header
    head += _U32.pack(_crc(header))
    head.extend(b"\x00" * (_align8(len(head)) - len(head)))
    return b"".join((head, *chunks))


# -- decoded views ------------------------------------------------------------


class _SingleTuples(dict):
    """``offset -> (offset,)``, made on first lookup: one tuple per
    offset, shared by every single-position entry of an index."""

    def __missing__(self, offset: int) -> tuple[int]:
        single = self[offset] = (offset,)
        return single


class _PackedDocTerms:
    """Mapping-shaped term-document view over the packed frames: ``get``
    returns the frame's :class:`TermDocumentPostings` (None for a term
    the index does not hold)."""

    __slots__ = ("_index",)

    def __init__(self, index: "PackedIndex"):
        self._index = index

    def get(self, term: str) -> TermDocumentPostings | None:
        views = self._index._views(term)
        return None if views is None else views[1]


class _PackedTermsMap(Mapping):
    """Read-only ``term -> postings`` mapping over the term directory
    (decodes lazily; supports the few Mapping uses the engine has)."""

    __slots__ = ("_index",)

    def __init__(self, index: "PackedIndex"):
        self._index = index

    def __getitem__(self, term: str) -> PositionPostings:
        if term not in self._index._directory:
            raise KeyError(term)
        return self._index.postings(term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index._directory)

    def __len__(self) -> int:
        return len(self._index._directory)


class PackedIndex:
    """A read-only index over one packed blob (bytes, mmap, or a
    ``multiprocessing.shared_memory`` buffer) — what every engine,
    loaded or built in memory, and every worker process serves.

    Construction performs the cheap structural checks every open must
    pass (magic, version, header CRC, directory bounds, truncation);
    ``verify=True`` additionally sweeps every section and term frame
    checksum — the full-integrity pass a load from untrusted storage
    wants.  All failures raise
    :class:`repro.errors.IndexCorruptionError`.
    """

    def __init__(self, buf, *, verify: bool = False, source: str | None = None):
        mv = memoryview(buf)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        self._mv = mv
        src = source if source is not None else "<packed index>"
        self._source = src
        if len(mv) < 16:
            raise IndexCorruptionError(
                "truncated packed index (shorter than the fixed header)",
                path=src,
            )
        if bytes(mv[:8]) != MAGIC:
            raise IndexCorruptionError(
                "not a packed index (bad magic)", path=src
            )
        version, hlen = struct.unpack_from("<II", mv, 8)
        if version != VERSION:
            raise IndexCorruptionError(
                f"unsupported packed format version {version}", path=src
            )
        if 16 + hlen + 4 > len(mv):
            raise IndexCorruptionError(
                "truncated packed index (header extends past the buffer)",
                path=src,
            )
        hbytes = bytes(mv[16 : 16 + hlen])
        (hcrc,) = _U32.unpack_from(mv, 16 + hlen)
        if _crc(hbytes) != hcrc:
            raise IndexCorruptionError(
                "packed header checksum mismatch", path=src
            )
        try:
            header = json.loads(hbytes.decode("utf-8"))
            self._payload_size = int(header["payload_size"])
            self._directory: dict[str, list[int]] = header["terms"]
            self._sections: dict[str, list[int]] = header["sections"]
            self._sections_crc = int(header["sections_crc"])
            num_docs = int(header["num_docs"])
            if not isinstance(self._directory, dict):
                raise TypeError("term directory is not an object")
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptionError(
                f"malformed packed header: {exc}", path=src
            ) from None
        self._base = _align8(16 + hlen + 4)
        if self._base + self._payload_size > len(mv):
            raise IndexCorruptionError(
                "truncated packed index (payload extends past the buffer)",
                path=src,
            )
        doc_lengths = self._section("doc_lengths", np.int64)
        if len(doc_lengths) != num_docs:
            raise IndexCorruptionError(
                f"doc_lengths section holds {len(doc_lengths)} entries, "
                f"header records {num_docs} documents",
                path=src,
            )
        self.stats = CollectionStats(doc_lengths)
        self._sent_counts = self._section("sentence_counts", np.uint32)
        self._sent_values = self._section("sentence_values", np.uint32)
        if len(self._sent_counts) != num_docs:
            raise IndexCorruptionError(
                "sentence_counts section does not cover every document",
                path=src,
            )
        self._sentence_starts: list[tuple[int, ...]] | None = None
        self._decoded: dict[
            str, tuple[PositionPostings, TermDocumentPostings]
        ] = {}
        self._singles = _SingleTuples()
        if verify:
            self.verify()

    # The two mapping views are made on each access, not stored: a view
    # refers to its index, and an index holding its views would be a
    # reference cycle that keeps the blob and every decoded frame alive
    # after the last reader drops it, until the cyclic collector runs.

    @property
    def doc_terms(self) -> _PackedDocTerms:
        return _PackedDocTerms(self)

    @property
    def terms(self) -> _PackedTermsMap:
        return _PackedTermsMap(self)

    @property
    def blob(self) -> bytes:
        """Exactly the packed bytes this index reads (the buffer it was
        opened over may be longer: shared-memory segments round up).
        Opened over a ``bytes`` of just that length, it is that object;
        any other buffer is copied."""
        size = self._base + self._payload_size
        buf = self._mv.obj
        if type(buf) is bytes and len(buf) == len(self._mv) == size:
            return buf
        return bytes(self._mv[:size])

    # -- zero-copy section / frame access ---------------------------------

    def _section(self, name: str, dtype) -> np.ndarray:
        try:
            rel, size = self._sections[name]
            rel, size = int(rel), int(size)
        except (KeyError, TypeError, ValueError):
            raise IndexCorruptionError(
                f"packed header missing section {name!r}", path=self._source
            ) from None
        itemsize = np.dtype(dtype).itemsize
        if rel < 0 or size < 0 or rel + size > self._payload_size or size % itemsize:
            raise IndexCorruptionError(
                f"section {name!r} has inconsistent bounds", path=self._source
            )
        return np.frombuffer(
            self._mv, dtype=dtype, count=size // itemsize,
            offset=self._base + rel,
        )

    def _frame_bounds(self, term: str) -> tuple[int, int, int, int]:
        """(absolute offset, size, n_docs, n_positions) of a term frame,
        structurally validated."""
        try:
            rel, size = map(int, self._directory[term])
        except (TypeError, ValueError):
            raise IndexCorruptionError(
                f"term {term!r}: malformed directory entry",
                path=self._source,
            ) from None
        off = self._base + rel
        if rel < 0 or size < _FRAME_HEAD.size + 4 or rel + size > self._payload_size:
            raise IndexCorruptionError(
                f"term {term!r}: frame bounds outside the payload",
                path=self._source,
            )
        magic, n_docs, n_pos = _FRAME_HEAD.unpack_from(self._mv, off)
        if magic != _FRAME_MAGIC:
            raise IndexCorruptionError(
                f"term {term!r}: bad frame magic", path=self._source
            )
        if _FRAME_HEAD.size + 8 * n_docs + 4 * n_pos + 4 != size:
            raise IndexCorruptionError(
                f"term {term!r}: frame size does not match its entry counts",
                path=self._source,
            )
        return off, size, n_docs, n_pos

    def _decode(
        self, term: str
    ) -> tuple[PositionPostings, TermDocumentPostings]:
        """Both views of ``term``'s frame.  The doc ids are decoded once
        and shared; offsets are tuples of builtin ints cut from one
        ``tolist``, and single-position entries share one tuple per
        offset (most entries hold one position)."""
        off, _size, n, n_pos = self._frame_bounds(term)
        mv = self._mv
        head = _FRAME_HEAD.size
        deltas = np.frombuffer(mv, np.uint32, n, off + head)
        counts = np.frombuffer(mv, np.uint32, n, off + head + 4 * n)
        # Batch decode: one cumsum rebuilds the sorted doc ids, another
        # the per-document run bounds into the positions buffer.
        doc_ids = np.cumsum(deltas, dtype=np.int64)
        cuts = [0, *np.cumsum(counts, dtype=np.int64).tolist()]
        if cuts[-1] != n_pos:
            raise IndexCorruptionError(
                f"term {term!r}: position counts do not sum to the frame's "
                "position total",
                path=self._source,
            )
        positions = np.frombuffer(mv, np.uint32, n_pos, off + head + 8 * n).tolist()
        singles = self._singles
        offsets = [
            singles[positions[a]] if b - a == 1 else tuple(positions[a:b])
            for a, b in zip(cuts, cuts[1:])
        ]
        return (
            PositionPostings(doc_ids, offsets),
            TermDocumentPostings(doc_ids, counts),
        )

    def _views(
        self, term: str
    ) -> tuple[PositionPostings, TermDocumentPostings] | None:
        """``term``'s decoded views, decoding its frame on first use;
        None for a term the index does not hold."""
        views = self._decoded.get(term)
        if views is None and term in self._directory:
            views = self._decoded[term] = self._decode(term)
        return views

    # -- integrity ---------------------------------------------------------

    def verify(self) -> None:
        """Full checksum sweep: every section and term frame.

        Raises :class:`repro.errors.IndexCorruptionError` on the first
        mismatch — a flipped byte anywhere in the blob is caught either
        here or (for the header) at construction.
        """
        crc = 0
        for name in ("doc_lengths", "sentence_counts", "sentence_values"):
            rel, size = self._sections[name]
            off = self._base + int(rel)
            crc = _crc(self._mv[off : off + int(size)], crc)
        if crc != self._sections_crc:
            raise IndexCorruptionError(
                "statistics sections checksum mismatch", path=self._source
            )
        for term in self._directory:
            off, size, _n, _p = self._frame_bounds(term)
            (stored,) = _U32.unpack_from(self._mv, off + size - 4)
            if _crc(self._mv[off : off + size - 4]) != stored:
                raise IndexCorruptionError(
                    f"term {term!r}: frame checksum mismatch",
                    path=self._source,
                )

    # -- lookups used by planning, execution and scoring --------------------

    def postings(self, term: str) -> PositionPostings:
        """Position postings for ``term`` (empty postings if unseen)."""
        views = self._views(term)
        return EMPTY_POSTINGS if views is None else views[0]

    def sentence_starts_of(self, doc_id: int) -> tuple[int, ...]:
        if self._sentence_starts is None:
            bounds = np.zeros(len(self._sent_counts) + 1, dtype=np.int64)
            if len(self._sent_counts):
                np.cumsum(self._sent_counts, dtype=np.int64, out=bounds[1:])
            values = self._sent_values.tolist()
            blist = bounds.tolist()
            self._sentence_starts = [
                tuple(values[blist[i] : blist[i + 1]])
                for i in range(len(self._sent_counts))
            ]
        if 0 <= doc_id < len(self._sentence_starts):
            return self._sentence_starts[doc_id]
        return ()

    def document_frequency(self, term: str) -> int:
        """#DOCS for ``term``."""
        views = self._decoded.get(term)
        if views is not None:
            return views[0].document_frequency
        if term not in self._directory:
            return 0
        # Header peek: the cost model asks for df per candidate term;
        # answering from the frame head avoids decoding frames no plan
        # will ever scan.
        return self._frame_bounds(term)[2]

    def term_frequency(self, doc_id: int, term: str) -> int:
        """#INDOC for ``term`` in ``doc_id``."""
        return self.postings(term).term_frequency(doc_id)

    def total_positions(self, term: str) -> int:
        views = self._decoded.get(term)
        if views is not None:
            return views[0].total_positions
        if term not in self._directory:
            return 0
        return self._frame_bounds(term)[3]

    @property
    def num_docs(self) -> int:
        return self.stats.num_docs

    @property
    def doc_range(self) -> tuple[int, int]:
        """``[lo, hi)`` of the doc ids postings hold: the whole collection
        (a :class:`repro.index.shard.ShardView` answers its slice)."""
        return 0, self.stats.num_docs

    def vocabulary_size(self) -> int:
        return len(self._directory)
