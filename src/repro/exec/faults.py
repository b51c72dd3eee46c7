"""Deterministic fault injection for the physical execution engine.

A serving stack must prove its error paths, not hope for them: every
physical operator has to surface failures as
:class:`repro.errors.ExecutionError` with operator context, and partial
degradation must never return a mis-ranked prefix.  This harness makes
those properties testable by planting *deterministic* faults inside the
operator tree.

A :class:`FaultInjector` is attached to the
:class:`repro.exec.iterator.Runtime`; during compilation
(:func:`repro.exec.compile.compile_plan`) every physical operator whose
class name matches a :class:`FaultSpec` is wrapped in a
:class:`FaultyOp`.  The wrapper raises a raw (non-Graft)
:class:`InjectedFault` either on the Nth call of a method
(``fail_at_call``, optionally drawn from a seeded RNG) or when a given
document id flows through (``fail_on_doc``).  The engine's error
boundaries (:func:`repro.exec.iterator.pull_doc`) then have to convert
the raw fault into a contextful :class:`ExecutionError` — which is
exactly what the robustness tests assert.

When no injector is attached, compilation does not wrap anything, so the
harness costs nothing in production.

Example::

    inj = FaultInjector([FaultSpec(op_name="MergeJoinOp", fail_at_call=2)])
    runtime = make_runtime(index, scheme, info, faults=inj)
    execute(plan, runtime)   # raises ExecutionError("[MergeJoinOp] ...")
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.errors import GraftError
from repro.exec.iterator import DocGroup, PhysicalOp

_METHODS = ("next_doc", "seek_doc")


class InjectedFault(RuntimeError):
    """A raw, non-Graft failure planted by the harness.

    Deliberately *not* a :class:`repro.errors.GraftError`: it simulates
    an unexpected internal failure (index corruption, a scheme bug) that
    the engine must wrap before it reaches the caller.
    """


@dataclass
class FaultSpec:
    """Where and when one fault fires.

    Attributes:
        op_name: Physical operator class name to target (e.g.
            ``"MergeJoinOp"``); ``None`` targets every operator.
        method: ``"next_doc"`` or ``"seek_doc"``.
        fail_at_call: Fire on the Nth matching call (1-based), counted
            across all instances of the targeted operator class.  Leave
            ``None`` with an injector ``seed`` to have the harness draw N
            deterministically.
        fail_on_doc: Fire when this document id flows through the
            operator (the group about to be returned by ``next_doc``, or
            the target of ``seek_doc``).
        message: Text of the injected exception.
    """

    op_name: str | None = None
    method: str = "next_doc"
    fail_at_call: int | None = None
    fail_on_doc: int | None = None
    message: str = "injected fault"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise GraftError(
                f"fault method must be one of {_METHODS}, got {self.method!r}"
            )


class FaultInjector:
    """Wraps physical operators with deterministic fault triggers.

    Args:
        specs: The faults to plant.  Specs with neither ``fail_at_call``
            nor ``fail_on_doc`` must be accompanied by ``seed``.
        seed: Seeds an RNG that draws ``fail_at_call`` in
            ``[1, max_call]`` for every unresolved spec — deterministic
            per seed, so a failing draw is reproducible from its seed.
        max_call: Upper bound of the seeded draw.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        seed: int | None = None,
        max_call: int = 16,
    ):
        self.specs = list(specs)
        self.seed = seed
        rng = random.Random(seed) if seed is not None else None
        for spec in self.specs:
            if spec.fail_at_call is None and spec.fail_on_doc is None:
                if rng is None:
                    raise GraftError(
                        "FaultSpec needs fail_at_call, fail_on_doc, or an "
                        "injector seed to draw the call index from"
                    )
                spec.fail_at_call = rng.randint(1, max_call)
        self._calls = [0] * len(self.specs)
        #: Operator class names seen during compilation (discovery aid
        #: for coverage tests: run once with no specs, read this).
        self.seen_ops: list[str] = []
        #: Human-readable log of every fault fired.
        self.fired: list[str] = []

    def wrap(self, op: PhysicalOp) -> PhysicalOp:
        """Wrap ``op`` if any spec targets it (records it either way)."""
        name = type(op).__name__
        self.seen_ops.append(name)
        indices = [
            i
            for i, spec in enumerate(self.specs)
            if spec.op_name is None or spec.op_name == name
        ]
        if not indices:
            return op
        return FaultyOp(op, self, tuple(indices))

    # -- trigger evaluation (called by FaultyOp) ---------------------------

    def before_call(self, indices: tuple[int, ...], method: str, op: str) -> None:
        for i in indices:
            spec = self.specs[i]
            if spec.method != method or spec.fail_at_call is None:
                continue
            self._calls[i] += 1
            if self._calls[i] == spec.fail_at_call:
                self._fire(spec, op, f"{method} call {self._calls[i]}")

    def on_doc(self, indices: tuple[int, ...], method: str, doc: int, op: str) -> None:
        for i in indices:
            spec = self.specs[i]
            if spec.method != method or spec.fail_on_doc is None:
                continue
            if doc == spec.fail_on_doc:
                self._fire(spec, op, f"{method} at doc {doc}")

    def _fire(self, spec: FaultSpec, op: str, where: str) -> None:
        detail = f"{spec.message} ({op}.{where})"
        self.fired.append(detail)
        raise InjectedFault(detail)


class FaultyOp(PhysicalOp):
    """Transparent operator wrapper that raises planted faults.

    Masquerades as the wrapped operator through ``op_name`` so error
    boundaries attribute the failure to the real operator, and exposes
    the wrapped schema unchanged.
    """

    def __init__(self, inner: PhysicalOp, injector: FaultInjector, indices: tuple[int, ...]):
        self.inner = inner
        self.schema = inner.schema
        self.op_name = type(inner).__name__
        self._injector = injector
        self._indices = indices

    def open(self) -> None:
        self.inner.open()

    def close(self) -> None:
        self.inner.close()

    def next_doc(self) -> DocGroup | None:
        inj = self._injector
        inj.before_call(self._indices, "next_doc", self.op_name)
        group = self.inner.next_doc()
        if group is not None:
            inj.on_doc(self._indices, "next_doc", group[0], self.op_name)
        return group

    def seek_doc(self, doc_id: int) -> None:
        inj = self._injector
        inj.before_call(self._indices, "seek_doc", self.op_name)
        inj.on_doc(self._indices, "seek_doc", doc_id, self.op_name)
        self.inner.seek_doc(doc_id)

    def doc_floor(self) -> int | None:
        return self.inner.doc_floor()
