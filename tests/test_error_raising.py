"""Every public error class is raised by at least one path of the public
API — the error hierarchy is a contract, not decoration.

``test_every_public_error_class_is_exercised`` enumerates the classes in
:mod:`repro.errors` dynamically, so adding a new error class without a
raising scenario here fails the suite.
"""

from __future__ import annotations

import pytest

from repro import SearchEngine, errors
from repro.baselines.rigid import decompose_rigid
from repro.exec.engine import make_runtime
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.limits import QueryLimits
from repro.ma.nodes import PlanNode
from repro.mcalc.parser import parse_query
from repro.sa.registry import get_scheme


@pytest.fixture
def engine():
    e = SearchEngine()
    e.add("pad " + "boom " * 40 + "tail")
    e.add("the quick brown fox jumps over the lazy dog")
    e.add("a boom and a quick dog")
    return e


def raise_graft_error(engine):
    engine.search("quick dog", top_k=0)


def raise_config_error(engine):
    SearchEngine(shards=-2)


def raise_query_syntax_error(engine):
    engine.parse('"unterminated phrase')


def raise_unsafe_query_error(engine):
    from repro.mcalc.ast import Has, Or
    from repro.mcalc.safety import check_safe

    check_safe(Or((Has("p", "a"), Has("q", "b"))), ("p", "q"))


def raise_unknown_predicate_error(engine):
    engine.parse("(a b)NOSUCH[3]")


def raise_predicate_arity_error(engine):
    engine.parse("(a)WINDOW[5] b")


def raise_unknown_scheme_error(engine):
    engine.search("quick", scheme="no-such-scheme")


def raise_plan_error(engine):
    class Bogus(PlanNode):
        pass

    from repro.exec.compile import compile_plan
    from repro.graft.canonical import make_query_info

    query = parse_query("quick", engine.collection.analyzer)
    scheme = get_scheme("sumbest")
    runtime = make_runtime(engine.index, scheme, make_query_info(query, scheme))
    compile_plan(Bogus(), runtime)


def raise_optimization_error(engine):
    # Table 1: alternate elimination needs a constant scheme.
    from repro.graft.validity import require_allowed

    require_allowed("alternate-elimination", get_scheme("sumbest").properties)


def raise_execution_error(engine):
    faults = FaultInjector([FaultSpec(op_name="FinalizeOp", fail_at_call=1)])
    engine.search("quick dog", faults=faults)


def raise_unsupported_query_error(engine):
    decompose_rigid(parse_query("(a b)WINDOW[50]"))


def raise_index_error(engine, tmp_path):
    SearchEngine.load(tmp_path / "nowhere")


def raise_index_corruption_error(engine, tmp_path):
    other = SearchEngine()
    other.add("the quick brown fox")
    other.save(tmp_path / "store")
    manifest = tmp_path / "store" / "MANIFEST"
    data = bytearray(manifest.read_bytes())
    data[70] ^= 0x01
    manifest.write_bytes(bytes(data))
    SearchEngine.load(tmp_path / "store")


def raise_store_locked_error(engine, tmp_path):
    with SearchEngine.open(tmp_path / "locked"):
        SearchEngine.open(tmp_path / "locked")


def raise_resource_exhausted_error(engine):
    engine.search("boom boom", optimize=False, limits=QueryLimits(max_rows=5))


def raise_query_timeout_error(engine):
    engine.match_table(
        "boom boom boom boom", limits=QueryLimits(deadline_ms=50)
    )


def raise_score_consistency_error(engine):
    import repro.api
    from repro.graft.optimizer import Optimizer, OptimizerOptions
    from repro.obs.audit import AuditConfig

    class GateDroppingOptimizer(Optimizer):
        def _allowed(self, name: str) -> bool:
            return True

    original = repro.api.Optimizer
    repro.api.Optimizer = GateDroppingOptimizer
    try:
        broken = SearchEngine(
            engine.collection, audit=AuditConfig(rate=1.0, mode="strict")
        )
        broken.search(
            "quick (dog | boom)",
            scheme="sumbest",
            options=OptimizerOptions(eager_aggregation=False),
        )
    finally:
        repro.api.Optimizer = original


#: error class -> callable(engine, tmp_path) raising it through the API.
SCENARIOS = {
    errors.GraftError: raise_graft_error,
    errors.ConfigError: raise_config_error,
    errors.QuerySyntaxError: raise_query_syntax_error,
    errors.UnsafeQueryError: raise_unsafe_query_error,
    errors.UnknownPredicateError: raise_unknown_predicate_error,
    errors.PredicateArityError: raise_predicate_arity_error,
    errors.UnknownSchemeError: raise_unknown_scheme_error,
    errors.PlanError: raise_plan_error,
    errors.OptimizationError: raise_optimization_error,
    errors.ExecutionError: raise_execution_error,
    errors.UnsupportedQueryError: raise_unsupported_query_error,
    errors.IndexError_: raise_index_error,
    errors.IndexCorruptionError: raise_index_corruption_error,
    errors.StoreLockedError: raise_store_locked_error,
    errors.ResourceExhaustedError: raise_resource_exhausted_error,
    errors.QueryTimeoutError: raise_query_timeout_error,
    errors.ScoreConsistencyError: raise_score_consistency_error,
}

#: Scenarios that persist state and therefore need a scratch directory.
NEEDS_TMP_PATH = {
    raise_index_error,
    raise_index_corruption_error,
    raise_store_locked_error,
}


def public_error_classes() -> list[type]:
    return [
        obj
        for name in dir(errors)
        if not name.startswith("_")
        for obj in [getattr(errors, name)]
        if isinstance(obj, type) and issubclass(obj, errors.GraftError)
    ]


def test_every_public_error_class_is_exercised():
    missing = [
        cls.__name__ for cls in public_error_classes() if cls not in SCENARIOS
    ]
    assert not missing, f"no raising scenario for: {missing}"


@pytest.mark.parametrize(
    "cls", list(SCENARIOS), ids=[c.__name__ for c in SCENARIOS]
)
def test_error_class_raised_through_public_api(cls, engine, tmp_path):
    scenario = SCENARIOS[cls]
    with pytest.raises(cls) as info:
        if scenario in NEEDS_TMP_PATH:
            scenario(engine, tmp_path)
        else:
            scenario(engine)
    # The *exact* class is raised somewhere in the hierarchy walk: assert
    # the scenario does not accidentally rely on a subclass of the target.
    assert isinstance(info.value, cls)
    assert isinstance(info.value, errors.GraftError)
