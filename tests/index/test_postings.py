"""Position postings tests."""

import numpy as np
import pytest

from repro.corpus.document import Document
from repro.exec.engine import make_runtime
from repro.exec.scan_ops import AtomScanOp, PreCountScanOp
from repro.index.builder import build_index
from repro.index.postings import PositionPostings
from repro.sa.registry import get_scheme


@pytest.fixture
def postings():
    return PositionPostings.from_dict({5: [9, 2], 1: [3], 8: [0, 4, 7]})


def test_doc_ids_sorted(postings):
    assert list(postings.doc_ids) == [1, 5, 8]


def test_offsets_sorted_per_doc(postings):
    assert postings.positions_in(5) == (2, 9)


def test_document_frequency(postings):
    assert postings.document_frequency == 3


def test_total_positions(postings):
    assert postings.total_positions == 6


def test_positions_in_absent_doc_is_empty(postings):
    assert postings.positions_in(4) == ()
    assert postings.positions_in(100) == ()


def test_term_frequency(postings):
    assert postings.term_frequency(8) == 3
    assert postings.term_frequency(2) == 0


def test_seek_index():
    """The leaves' skip-pointer seek lands on the first entry with
    doc >= target (doc ids 1, 5, 8)."""
    index = build_index(
        Document(doc_id, ("t",) if doc_id in (1, 5, 8) else ())
        for doc_id in range(9)
    )
    runtime = make_runtime(index, get_scheme("sumbest"), None)

    def first_doc_after_seek(leaf, target):
        op = leaf(runtime, "p", "t")
        op.seek_doc(target)
        group = op.next_doc()
        return None if group is None else group[0]

    for leaf in (AtomScanOp, PreCountScanOp):
        assert first_doc_after_seek(leaf, 0) == 1
        assert first_doc_after_seek(leaf, 1) == 1
        assert first_doc_after_seek(leaf, 2) == 5
        assert first_doc_after_seek(leaf, 9) is None


def test_empty_postings():
    empty = PositionPostings.empty()
    assert empty.document_frequency == 0
    assert empty.total_positions == 0
    assert empty.positions_in(0) == ()


def test_misaligned_construction_rejected():
    with pytest.raises(ValueError):
        PositionPostings(np.asarray([1, 2], dtype=np.int64), [(1,)])
