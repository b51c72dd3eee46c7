"""Collection persistence: JSON-lines documents alongside a saved index.

One line per document: ``{"title": ..., "tokens": [...],
"sentence_starts": [...]}``.  Tokens are stored post-analysis so a
reloaded collection reproduces positions exactly regardless of analyzer
drift.
"""

from __future__ import annotations

import json
import pathlib

from repro.corpus.analyzer import Analyzer
from repro.corpus.collection import DocumentCollection
from repro.errors import IndexCorruptionError, IndexError_

_DOCS = "documents.jsonl"


def document_record(doc) -> dict:
    """The JSON-serializable record for one analyzed document."""
    return {
        "title": doc.title,
        "tokens": list(doc.tokens),
        "sentence_starts": list(doc.sentence_starts),
    }


def add_record(collection: DocumentCollection, record: dict):
    """Append one :func:`document_record` to ``collection``."""
    return collection.add_tokens(
        record["tokens"],
        title=record.get("title", ""),
        sentence_starts=tuple(record.get("sentence_starts", ())),
    )


def collection_to_bytes(collection: DocumentCollection) -> bytes:
    """Serialize ``collection`` as JSON-lines bytes."""
    lines = [json.dumps(document_record(doc)) for doc in collection]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def collection_from_bytes(
    data: bytes,
    analyzer: Analyzer | None = None,
    source: str = _DOCS,
) -> DocumentCollection:
    """Parse JSON-lines bytes back into a collection.

    Malformed lines raise :class:`IndexCorruptionError` naming
    ``source`` — by the time this runs the bytes have already passed
    their checksum, so damage here means a writer bug, not bit rot.
    """
    collection = DocumentCollection(analyzer)
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            add_record(collection, record)
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexCorruptionError(
                f"malformed document record on line {lineno}: {exc}",
                path=source,
            ) from exc
    return collection


def save_collection(
    collection: DocumentCollection, directory: str | pathlib.Path
) -> pathlib.Path:
    """Write ``collection`` as JSON lines under ``directory``."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / _DOCS).write_bytes(collection_to_bytes(collection))
    return path


def load_collection(
    directory: str | pathlib.Path, analyzer: Analyzer | None = None
) -> DocumentCollection:
    """Load a collection saved by :func:`save_collection`.

    ``analyzer`` is attached for future queries/additions; stored tokens
    are used verbatim.
    """
    path = pathlib.Path(directory) / _DOCS
    if not path.exists():
        raise IndexError_(f"no saved collection under {path.parent}")
    return collection_from_bytes(
        path.read_bytes(), analyzer, source=str(path)
    )
