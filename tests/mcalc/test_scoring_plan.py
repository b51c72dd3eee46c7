"""Scoring-plan (Phi) derivation tests (Section 4.2.1)."""

import pytest

from repro.errors import PlanError
from repro.mcalc.parser import parse_query
from repro.mcalc.scoring_plan import (
    PhiConj,
    PhiDisj,
    PhiVar,
    compile_phi,
    derive_scoring_plan,
    fold_phi,
)


def phi_of(text):
    return derive_scoring_plan(parse_query(text))


def test_single_keyword():
    assert phi_of("fox") == PhiVar("p0")


def test_conjunction():
    assert phi_of("a b") == PhiConj((PhiVar("p0"), PhiVar("p1")))


def test_disjunction():
    assert phi_of("a | b") == PhiDisj((PhiVar("p0"), PhiVar("p1")))


def test_q3_scoring_plan_shape():
    """Example 4: Phi(Q3) = (windows (x) emulator) (x) (foss (+) [free (x) software])."""
    phi = phi_of('(windows emulator)WINDOW[50] (foss | "free software")')
    assert phi == PhiConj((
        PhiConj((PhiVar("p0"), PhiVar("p1"))),
        PhiDisj((PhiVar("p2"), PhiConj((PhiVar("p3"), PhiVar("p4"))))),
    ))


def test_predicates_are_erased():
    phi = phi_of("(a b)PROXIMITY[5]")
    assert phi == PhiConj((PhiVar("p0"), PhiVar("p1")))


def test_negations_are_erased():
    phi = phi_of("a -b")
    assert phi == PhiVar("p0")


def test_dangling_connectives_collapse():
    # The group contributes a single variable after erasures.
    phi = phi_of("(a -b) c")
    assert phi == PhiConj((PhiVar("p0"), PhiVar("p2")))


def test_fold_preserves_written_order():
    phi = phi_of("a b c")
    trace = []

    def conj(left, right):
        trace.append((left, right))
        return f"({left}*{right})"

    out = fold_phi(phi, lambda v: v, conj, lambda a, b: a)
    assert out == "((p0*p1)*p2)"  # left fold
    assert trace == [("p0", "p1"), ("(p0*p1)", "p2")]


def test_fold_mixed_tree():
    phi = phi_of("a (b | c)")
    out = fold_phi(
        phi,
        lambda v: v,
        lambda l, r: f"({l}&{r})",
        lambda l, r: f"({l}|{r})",
    )
    assert out == "(p0&(p1|p2))"


@pytest.mark.parametrize(
    "text",
    ["a", "a b c", "a (b | c)", "(a | b) (c | d) e", "a | (b c) | d", '"a b" (c | "d e")'],
)
def test_compiled_phi_makes_the_calls_fold_phi_makes(text):
    """The closure tree is the interpreter unrolled: same combinator calls,
    same arguments, same order, over row columns instead of a lookup."""
    phi = phi_of(text)
    variables = list(phi.variables())
    # Score columns sit at scattered row indices, as after a join.
    column = {v: 2 * i + 1 for i, v in enumerate(variables)}
    row = tuple(f"s{i}" for i in range(2 * len(variables) + 1))

    def recording(symbol, trace):
        def combine(left, right):
            trace.append((symbol, left, right))
            return f"({left}{symbol}{right})"
        return combine

    interpreted: list = []
    want = fold_phi(
        phi, lambda v: row[column[v]],
        recording("&", interpreted), recording("|", interpreted),
    )
    compiled: list = []
    evaluate = compile_phi(
        phi, column.__getitem__,
        recording("&", compiled), recording("|", compiled),
    )
    assert evaluate(row) == want
    assert compiled == interpreted
    # Compiled once, evaluated per row.
    compiled.clear()
    assert evaluate(row) == want and compiled == interpreted


def test_query_without_scorable_keywords_rejected():
    from repro.mcalc.ast import Not, Has, And, Query

    with pytest.raises(PlanError):
        # Construct directly: all-negative queries cannot be parsed safely
        # anyway, so bypass the parser.
        derive_scoring_plan(
            Query(
                formula=Has("p0", "a"),
                free_vars=(),
                var_keywords={"p0": "a"},
                source_formula=Not(Has("p0", "a")),
            )
        )


def test_phi_variables_iteration():
    phi = phi_of('a (b | "c d")')
    assert list(phi.variables()) == ["p0", "p1", "p2", "p3"]
