"""Rank-join / rank-union top-k evaluation (Section 5.2.1).

"Top-k optimizations speed up query execution by first exploring the
documents that show the highest potential for a high score, and avoiding
further exploration of lower scoring documents once the top-K are
established."  We implement the relational rank-join of Ilyas et al.
(HRJN): two score-descending streams are hash-joined with a threshold on
the best still-possible combined score; a rank-union counterpart hosts the
disjunctive combinator.

Applicability (Table 1): the hosted combinator must be monotonically
increasing and the scheme diagonal.  Our streaming construction derives
each keyword's per-document column score independently of the other
keywords, which additionally requires an idempotent alternate combinator
(so the column score does not depend on the cross-product multiplicity
contributed by the other streams); the gate in :func:`rank_join_applicable`
includes it, a restriction recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.errors import GraftError, OptimizationError, ResourceExhaustedError
from repro.exec.limits import QueryGuard
from repro.graft.validity import optimization_allowed
from repro.index.packed import PackedIndex
from repro.mcalc.ast import And, Has, Or, Query
from repro.sa.context import IndexScoringContext, ScoringContext
from repro.sa.scheme import ScoringScheme

#: A rank stream: (score, doc) pairs in descending score order.
RankStream = Iterator[tuple[float, int]]


def rank_join_applicable(query: Query, scheme: ScoringScheme) -> bool:
    """May this (query, scheme) pair run on the rank-join top-k path?"""
    props = scheme.properties
    if not (props.diagonal and props.alt_idempotent):
        return False
    structure = _structure(query)
    if structure is None:
        return False
    kind, _ = structure
    if kind == "conj":
        return optimization_allowed("rank-join", props)
    return optimization_allowed("rank-union", props)


def _structure(query: Query) -> tuple[str, list[str]] | None:
    """A flat conjunction or flat disjunction of keywords, else None.

    Full-text predicates force position-level evaluation, which the
    column-score streams cannot provide.
    """
    if query.predicates():
        return None
    # The user-written tree: safe-range padding wraps disjunct branches
    # with EMPTY markers that are irrelevant here.
    f = query.source_formula
    if isinstance(f, Has):
        return ("conj", [f.var])
    if isinstance(f, (And, Or)):
        vars_: list[str] = []
        for op in f.operands:
            if not isinstance(op, Has):
                return None
            vars_.append(op.var)
        return ("conj" if isinstance(f, And) else "disj", vars_)
    return None


def _column_stream(
    index: PackedIndex,
    ctx: ScoringContext,
    scheme: ScoringScheme,
    var: str,
    keyword: str,
    guard: QueryGuard | None = None,
) -> list[tuple[float, int]]:
    """Per-document column scores for one keyword, descending.

    With an idempotent alternate combinator the column score of a document
    is simply alpha of any occurrence, whatever the multiplicity.
    """
    postings = index.postings(keyword)
    alpha = scheme.alpha_for(ctx, var, keyword)
    scored = []
    governed = guard is not None and guard.active
    for i in range(len(postings.doc_ids)):
        doc = int(postings.doc_ids[i])
        offset = postings.offsets[i][0]
        s = alpha(doc, offset)
        if governed:
            guard.charge_rows()
        scored.append((float(s), doc))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


class _HRJN:
    """Binary hash rank join producing a descending (score, doc) stream."""

    def __init__(
        self,
        left: list[tuple[float, int]],
        right: list[tuple[float, int]],
        combine: Callable[[float, float], float],
    ):
        self.left = left
        self.right = right
        self.combine = combine
        self.docs_pulled = 0

    def __iter__(self) -> RankStream:
        combine = self.combine
        seen_l: dict[int, float] = {}
        seen_r: dict[int, float] = {}
        top_l = self.left[0][0] if self.left else None
        top_r = self.right[0][0] if self.right else None
        if top_l is None or top_r is None:
            return
        buffer: list[tuple[float, int]] = []  # max-heap via negation
        i = j = 0
        last_l, last_r = top_l, top_r
        n, m = len(self.left), len(self.right)
        while i < n or j < m:
            # Pull from the stream with the higher head (HRJN strategy).
            pull_left = j >= m or (i < n and self.left[i][0] >= self.right[j][0])
            if pull_left:
                s, d = self.left[i]
                i += 1
                last_l = s
                seen_l[d] = s
                other = seen_r.get(d)
            else:
                s, d = self.right[j]
                j += 1
                last_r = s
                seen_r[d] = s
                other = seen_l.get(d)
            self.docs_pulled += 1
            if other is not None:
                total = combine(s, other) if pull_left else combine(other, s)
                heapq.heappush(buffer, (-total, d))
            threshold = max(combine(last_l, top_r), combine(top_l, last_r))
            while buffer and -buffer[0][0] >= threshold:
                neg, d = heapq.heappop(buffer)
                yield (-neg, d)
        while buffer:
            neg, d = heapq.heappop(buffer)
            yield (-neg, d)


class _RankUnion:
    """Binary rank union: every doc of either stream, combined score.

    A document absent from one stream contributes that stream's
    empty-cell score (alpha of the empty symbol).
    """

    def __init__(
        self,
        left: list[tuple[float, int]],
        right: list[tuple[float, int]],
        combine: Callable[[float, float], float],
        empty_left: Callable[[int], float],
        empty_right: Callable[[int], float],
    ):
        self.left = dict((d, s) for s, d in left)
        self.right = dict((d, s) for s, d in right)
        self.combine = combine
        self.empty_left = empty_left
        self.empty_right = empty_right

    def __iter__(self) -> RankStream:
        docs = set(self.left) | set(self.right)
        out = []
        for d in docs:
            sl = self.left.get(d)
            if sl is None:
                sl = self.empty_left(d)
            sr = self.right.get(d)
            if sr is None:
                sr = self.empty_right(d)
            out.append((self.combine(sl, sr), d))
        out.sort(key=lambda t: (-t[0], t[1]))
        yield from out


def rank_topk(
    query: Query,
    scheme: ScoringScheme,
    index: PackedIndex,
    k: int,
    ctx: ScoringContext | None = None,
    guard: QueryGuard | None = None,
) -> list[tuple[int, float]]:
    """Top-k (doc, score) results via rank join / rank union.

    ``guard`` subjects the evaluation to the same resource governance as
    plan execution; with ``on_limit="partial"`` a tripped limit returns
    the (correctly ranked, possibly empty) results accumulated so far.

    Raises:
        OptimizationError: when the (query, scheme) pair does not qualify
            (use :func:`rank_join_applicable` to pre-check).
    """
    if not rank_join_applicable(query, scheme):
        raise OptimizationError(
            "rank join requires a diagonal scheme with monotone combinators "
            "and an idempotent alternate combinator, on a predicate-free "
            "flat query"
        )
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise GraftError(f"top_k must be a positive integer, got {k!r}")
    if ctx is None:
        ctx = IndexScoringContext(index)
    if guard is not None:
        guard.start()
    governed = guard is not None and guard.active
    kind, vars_ = _structure(query)
    results: list[tuple[int, float]] = []
    try:
        streams = [
            _column_stream(index, ctx, scheme, v, query.var_keywords[v], guard)
            for v in vars_
        ]
        if kind == "conj":
            acc = streams[0]
            for nxt in streams[1:]:
                acc_list = []
                for pair in _HRJN(acc, nxt, scheme.conj):
                    if governed:
                        guard.tick()
                    acc_list.append(pair)
                    # Inner joins must run to completion to stay exact when
                    # composed; only the outermost level stops at k.
                acc = acc_list
            combined = acc
        else:
            def empty_for(var: str) -> Callable[[int], float]:
                alpha = scheme.alpha_for(ctx, var, query.var_keywords[var])

                def value(doc: int) -> float:
                    return float(alpha(doc, None))

                return value

            acc = streams[0]
            acc_empty = empty_for(vars_[0])
            for var, nxt in zip(vars_[1:], streams[1:]):
                union = _RankUnion(
                    acc, nxt, scheme.disj, acc_empty, empty_for(var)
                )
                merged = []
                for pair in union:
                    if governed:
                        guard.tick()
                    merged.append(pair)
                prev_empty, next_empty = acc_empty, empty_for(var)

                def combined_empty(doc: int, p=prev_empty, q=next_empty) -> float:
                    return scheme.disj(p(doc), q(doc))

                acc, acc_empty = merged, combined_empty
            combined = acc

        for score, doc in combined:
            results.append((doc, scheme.omega(ctx, doc, score)))
            if len(results) >= k:
                break
    except ResourceExhaustedError:
        if guard is None or guard.on_limit != "partial":
            raise
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:k]
