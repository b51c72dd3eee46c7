"""Physical operators hosting the Scoring Algebra (Section 4.3).

``ScoreInitOp`` hosts alpha (a generalized projection), ``CombinePhiOp``
hosts the conjunctive/disjunctive combinators, ``GroupScoreOp`` hosts the
alternate combinator (a group-by), and ``FinalizeOp`` hosts omega.

Each is one stage kernel of :class:`repro.exec.misc_ops.ChainOp` — a row
map or a fold — and nothing else: cursoring, the guard heartbeat and the
child's advancement belong to the chain driver, which runs a whole run of
these stages (and ``AlternateElimOp``) per document in one loop when they
sit directly on top of one another.  A kernel is a closure compiled when
the operator is built, so everything that is fixed for the query — the
bound alphas, the combinators, column indices, the compiled Phi — is
looked up once, not once per document.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ExecutionError
from repro.exec.iterator import PhysicalOp, RowSchema, Runtime
from repro.exec.misc_ops import ChainOp
from repro.mcalc.scoring_plan import compile_phi
from repro.sa.scheme import ScoringScheme

#: A lazy stage's kernel: ``(doc, rows) -> rows``.
RowsKernel = Callable[[int, Iterator[tuple]], Iterator[tuple]]
#: A folding stage's kernel: ``(doc, rows) -> row | None``.
FoldKernel = Callable[[int, Iterator[tuple]], "tuple | None"]


class ScoreInitOp(ChainOp):
    """Append ``alpha``-initialized score columns for the given variables.

    Alpha is bound once per variable when the operator is built
    (:meth:`repro.sa.scheme.ScoringScheme.alpha_for`).  Its values are
    memoized per (variable, cell) within each document — in a cross
    product the same position reappears in many rows.  When the scheme
    defines a per-row positional adjustment (the Lucene proximity
    extension), it is applied to the adjusted variables' scores before
    anything aggregates them.

    ``scale_by_count`` selects the counts-incorporated discipline of
    eager-aggregation plans: fresh scores are alternate-multiplied by the
    row count so that every score column of a row aggregates exactly
    ``count`` match-table sub-rows.
    """

    def __init__(
        self,
        runtime: Runtime,
        child: PhysicalOp,
        vars: tuple[str, ...],
        scale_by_count: bool,
    ):
        super().__init__(runtime, child)
        self.vars = vars
        self.scale_by_count = scale_by_count
        base = child.schema
        self.schema = RowSchema(base.positions, base.scores + vars)
        self.kernel = self._compile(base)

    def _compile(self, base: RowSchema) -> RowsKernel:
        runtime = self.runtime
        scheme = runtime.scheme
        ctx = runtime.ctx
        keywords = runtime.info.var_keywords
        variables = self.vars
        # Per variable: its cell's row index, its bound alpha, and its
        # (cell -> score) memo, emptied at each document.
        columns = tuple(
            (base.position_index(v), scheme.alpha_for(ctx, v, keywords[v]), {})
            for v in variables
        )
        memos = tuple(memo for _, _, memo in columns)
        count_index = base.count_index
        scale_by_count = self.scale_by_count
        times = scheme.times
        positions = base.positions
        adjust_preds: tuple = ()
        if type(scheme).cell_adjust is not ScoringScheme.cell_adjust:
            available = set(positions)
            adjust_preds = scheme.adjusting_predicates(tuple(
                p for p in runtime.info.predicates if set(p.vars) <= available
            ))
        cell_adjust = scheme.cell_adjust
        doc = -1

        def init_row(row: tuple) -> tuple:
            fresh = []
            for idx, alpha, memo in columns:
                cell = row[idx]
                score = memo.get(cell)
                if score is None:
                    score = memo[cell] = alpha(doc, cell)
                fresh.append(score)
            if adjust_preds:
                # Position columns lead the row, in schema order.
                cells = dict(zip(positions, row))
                factors = cell_adjust(ctx, doc, cells, adjust_preds)
                if factors:
                    for j, var in enumerate(variables):
                        f = factors.get(var)
                        if f is not None:
                            fresh[j] = fresh[j] * f
            if scale_by_count:
                count = row[count_index]
                if count != 1:
                    fresh = [times(s, count) for s in fresh]
            return row + tuple(fresh)

        def kernel(doc_id: int, rows: Iterator[tuple]) -> Iterator[tuple]:
            # A document's rows are dead once the next document is opened
            # (the PhysicalOp contract), so one memo set serves them all.
            nonlocal doc
            doc = doc_id
            for memo in memos:
                memo.clear()
            return map(init_row, rows)

        return kernel


class CombinePhiOp(ChainOp):
    """Fold the per-variable score columns of each row through the scoring
    plan Phi into a single ``s`` column; position columns are dropped.

    Phi is compiled once, when the operator is built, into a closure tree
    over the row's score columns
    (:func:`repro.mcalc.scoring_plan.compile_phi`)."""

    def __init__(self, runtime: Runtime, child: PhysicalOp):
        super().__init__(runtime, child)
        base = child.schema
        self.schema = RowSchema(positions=(), scores=("s",))
        phi = runtime.info.phi
        missing = [v for v in phi.variables() if v not in base.scores]
        if missing:
            raise ExecutionError(
                f"Phi references unscored variables {missing}; "
                f"available: {sorted(base.scores)}"
            )
        scheme = runtime.scheme
        combine = compile_phi(phi, base.score_index, scheme.conj, scheme.disj)
        count_index = base.count_index

        def phi_row(row: tuple) -> tuple:
            return (row[count_index], combine(row))

        self.kernel: RowsKernel = lambda doc, rows: map(phi_row, rows)


class GroupScoreOp(ChainOp):
    """Group by document, alternate-folding every score column in row
    order; emits one row per document with multiplicity = total count.

    With counts pending (canonical-style plans), each row's score is
    expanded to its multiplicity before folding — via the scheme's
    constant-time ``times`` when the alternate combinator multiplies,
    otherwise by folding ``count`` copies (always valid, per Table 1's
    unrestricted eager counting).
    """

    folds = True

    def __init__(self, runtime: Runtime, child: PhysicalOp, counts_incorporated: bool):
        super().__init__(runtime, child)
        self.counts_incorporated = counts_incorporated
        base = child.schema
        if not base.scores:
            raise ExecutionError("GroupScore requires score columns")
        self.schema = RowSchema(positions=(), scores=base.scores)
        self.kernel = self._compile(base.count_index)

    def _compile(self, ci: int) -> FoldKernel:
        scheme = self.runtime.scheme
        alt = scheme.alt
        times = scheme.times
        incorporated = self.counts_incorporated
        metrics = self.runtime.metrics

        def kernel(doc: int, rows: Iterator[tuple]) -> tuple | None:
            acc = None
            total = 0
            n_rows = 0
            for row in rows:
                count = row[ci]
                total += count
                n_rows += 1
                # Score columns trail the count, in schema order.
                scores = row[ci + 1:]
                if not incorporated and count != 1:
                    scores = [times(s, count) for s in scores]
                if acc is None:
                    acc = scores
                else:
                    acc = [alt(a, s) for a, s in zip(acc, scores)]
            if acc is None:
                # Every row of the document was filtered out upstream.
                return None
            metrics.rows_grouped += n_rows
            return (total,) + tuple(acc)

        return kernel


class FinalizeOp(ChainOp):
    """Host omega: emit one (score,) row per document."""

    folds = True

    def __init__(self, runtime: Runtime, child: PhysicalOp):
        super().__init__(runtime, child)
        base = child.schema
        if base.scores != ("s",):
            raise ExecutionError(
                f"Finalize expects a single combined score column 's', "
                f"got {base.scores}"
            )
        self.schema = RowSchema(positions=(), scores=("score",))
        self.kernel = self._compile(base.score_index("s"))

    def _compile(self, s_index: int) -> FoldKernel:
        omega = self.runtime.scheme.omega
        ctx = self.runtime.ctx

        def kernel(doc: int, rows: Iterator[tuple]) -> tuple | None:
            rows = list(rows)
            if not rows:
                return None
            if len(rows) != 1:
                raise ExecutionError(
                    f"document {doc} reached Finalize with {len(rows)} rows; "
                    "plans must aggregate to one row per document"
                )
            return (1, float(omega(ctx, doc, rows[0][s_index])))

        return kernel
