"""Score-encapsulated full-text algebra, after Botev et al. [7].

"The state-of-the-art full-text algebra extends each match tuple with a
score, and extends each algebra operator with a function to manipulate the
scores.  As plan evaluation constructs and combines match tuples, it
simultaneously computes and aggregates match scores" (Section 2).

This module reproduces that architecture faithfully enough to demonstrate
its failure mode: the score-join function ``SJ`` reads the *cardinality of
the operator's inputs*, so a selection pushed below a join changes those
cardinalities and with them the document scores — even though the set of
matches is unchanged.  The paper's worked example (one quarter of the
'emulator' score surviving in Plan 1 versus all of it in Plan 2) is
reproduced in ``tests/graft/test_motivation.py`` and
``examples/score_consistency.py``.

Tuples here are ``(doc, {var: offset}, score)``; operators are plain
functions over lists so the two plans of Section 2 can be composed by
hand.
"""

from __future__ import annotations

from typing import Callable

from repro.index.packed import PackedIndex
from repro.mcalc.ast import Pred
from repro.mcalc.predicates import get_predicate
from repro.sa.context import ScoringContext

#: A scored match tuple: (doc id, bindings, score).
ScoredTuple = tuple[int, dict[str, int], float]

#: SJ(m_L, m_R, |M_L|, |M_R|) -> combined score.  The cardinality
#: arguments are the intra-document input sizes — the quantity that
#: optimization perturbs.
ScoreJoin = Callable[[float, float, int, int], float]


def join_normalized_sj(score_l: float, score_r: float, n_l: int, n_r: int) -> float:
    """The example SJ of [7]: each side's score value is distributed
    equally among the output tuples it contributes to, so the join
    neither creates nor destroys score mass:
    ``m_L.s / |M_R| + m_R.s / |M_L|``."""
    left = score_l / n_r if n_r else 0.0
    right = score_r / n_l if n_l else 0.0
    return left + right


class EncapsulatedEngine:
    """Minimal evaluator for score-encapsulated plans over one index.

    Operators work per document (matches of different documents never
    interact) and are composed explicitly by the caller, mirroring the
    hand-drawn Plans 1 and 2 of the paper.
    """

    def __init__(self, index: PackedIndex, ctx: ScoringContext, sj: ScoreJoin,
                 initial: Callable[[ScoringContext, int, str, str], float]):
        self.index = index
        self.ctx = ctx
        self.sj = sj
        self.initial = initial

    # -- operators -------------------------------------------------------------

    def atom(self, var: str, keyword: str) -> list[ScoredTuple]:
        """A(var, keyword) with per-tuple initial scores."""
        out: list[ScoredTuple] = []
        postings = self.index.postings(keyword)
        for i in range(len(postings.doc_ids)):
            doc = int(postings.doc_ids[i])
            s = self.initial(self.ctx, doc, var, keyword)
            for off in postings.offsets[i]:
                out.append((doc, {var: off}, s))
        return out

    def join(self, left: list[ScoredTuple], right: list[ScoredTuple]) -> list[ScoredTuple]:
        """Natural join on doc; scores combined by SJ with the *current*
        per-document input cardinalities — the encapsulation that breaks
        under selection pushing."""
        by_doc_l = _group(left)
        by_doc_r = _group(right)
        out: list[ScoredTuple] = []
        for doc in sorted(set(by_doc_l) & set(by_doc_r)):
            l_tuples = by_doc_l[doc]
            r_tuples = by_doc_r[doc]
            n_l, n_r = len(l_tuples), len(r_tuples)
            for _, lb, ls in l_tuples:
                for _, rb, rs in r_tuples:
                    bindings = dict(lb)
                    bindings.update(rb)
                    out.append((doc, bindings, self.sj(ls, rs, n_l, n_r)))
        return out

    def select(self, tuples: list[ScoredTuple], pred: Pred) -> list[ScoredTuple]:
        """Selection: drops tuples (and, silently, their score mass)."""
        impl = get_predicate(pred.name)
        out = []
        for doc, bindings, s in tuples:
            positions = [bindings.get(v) for v in pred.vars]
            if impl.holds(positions, pred.constants):
                out.append((doc, bindings, s))
        return out

    def document_scores(self, tuples: list[ScoredTuple]) -> dict[int, float]:
        """Final aggregation: a document's score is the sum of its match
        scores (the score mass that survived the plan)."""
        out: dict[int, float] = {}
        for doc, _, s in tuples:
            out[doc] = out.get(doc, 0.0) + s
        return out


def _group(tuples: list[ScoredTuple]) -> dict[int, list[ScoredTuple]]:
    by_doc: dict[int, list[ScoredTuple]] = {}
    for t in tuples:
        by_doc.setdefault(t[0], []).append(t)
    return by_doc
