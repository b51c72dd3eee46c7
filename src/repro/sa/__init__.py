"""SA: the Scoring Algebra (Section 4).

SA comprises six operators: the initializer ``alpha`` scores individual
match-table cells; three binary combinators aggregate cell scores — the
conjunctive combinator, the disjunctive combinator, and the alternate
combinator — and the finalizer ``omega`` post-processes the aggregate into
the final floating-point document score.

A *scoring scheme* implements the six operators and declares the
optimization-relevant properties of Section 5.1.  Seven schemes from the
literature are provided in :mod:`repro.sa.schemes`.
"""

from repro.sa.context import (
    IndexScoringContext,
    OverrideScoringContext,
    ScoringContext,
)
from repro.sa.properties import Associativity, SchemeProperties
from repro.sa.reference import rank_with_oracle, score_match_table
from repro.sa.registry import available_schemes, get_scheme, register_scheme
from repro.sa.scheme import BoundAlphaScheme, ScoringScheme

__all__ = [
    "ScoringScheme",
    "BoundAlphaScheme",
    "SchemeProperties",
    "Associativity",
    "ScoringContext",
    "IndexScoringContext",
    "OverrideScoringContext",
    "get_scheme",
    "register_scheme",
    "available_schemes",
    "score_match_table",
    "rank_with_oracle",
]
