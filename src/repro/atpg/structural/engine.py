"""The :class:`StructuralAtpg` interface, engine registry and shared context.

Every structural test generator resolves one stuck-at fault to exactly one
of three outcomes:

* ``tested`` -- a primary-input pattern was found (and is verified against
  the forced-net reference simulation before being returned);
* ``proven_redundant`` -- the complete search space was exhausted without a
  test, so the fault is redundant.  Only *complete* searches may claim this;
* ``aborted`` -- the backtrack budget ran out (or the engine gave up
  heuristically) before either of the above.

Engines register themselves in :data:`ATPG_ENGINES` -- the ATPG counterpart
of :data:`repro.atpg.parallel_sim.PACKED_SIMULATORS` -- and campaigns select
one via ``CampaignSpec.atpg_engine``.

The :class:`CircuitContext` carries everything the searches share per
circuit.  It reads the circuit's shared
:class:`~repro.analysis_static.analysis.CircuitAnalysis` -- topological
order, fan-out maps, observability, the static learning, the one learned
implication engine and its per-literal closure memo -- and adds levels and
SCOAP testability numbers (guiding PODEM's backtrace and the D-algorithm's
frontier ordering).  Excitation closures both prune the search and prove
``unexcitable`` / ``dead-cone`` faults outright; a closure the
untestability prover already computed for the same literal is read from
the memo, not computed again.  Contexts are cached per circuit object and
rebuilt with the analysis when the circuit's structural
:attr:`~repro.logic.netlist.LogicCircuit.version` changes, so SCOAP and the
implication engine are built once per circuit, not once per fault.  A
caller that already holds the circuit's
:class:`~repro.analysis_static.implication.StaticLearning` (the campaign
pipeline learns once, in the lint gate) seeds the analysis with it through
:func:`circuit_context`; the context learns on its own only when nobody did.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ...analysis_static.analysis import CircuitAnalysis, circuit_analysis
from ...analysis_static.implication import (
    ImplicationEngine,
    StaticLearning,
    learn_implications,
)
from ...analysis_static.scoap import ScoapMeasures, scoap_measures
from ...faults.stuck_at import StuckAtFault
from ...logic.netlist import Gate, LogicCircuit
from ..fault_sim import simulate_with_forced_net
from ..podem import PodemOptions

#: The three structural ATPG outcomes.
TESTED = "tested"
PROVEN_REDUNDANT = "proven_redundant"
ABORTED = "aborted"

STATUSES = (TESTED, PROVEN_REDUNDANT, ABORTED)


@dataclass(frozen=True)
class StructuralResult:
    """Outcome of one structural test-generation attempt."""

    status: str
    pattern: Optional[dict[str, int]]
    backtracks: int = 0
    decisions: int = 0
    #: Net values derived by implication (forward five-valued propagation,
    #: backward unique justification, learned-closure assignments).
    implications: int = 0
    engine: str = ""

    # Compatibility with the PodemResult vocabulary used by campaign code.
    @property
    def success(self) -> bool:
        return self.status == TESTED

    @property
    def aborted(self) -> bool:
        return self.status == ABORTED

    @property
    def untestable(self) -> bool:
        """The fault is proven redundant (complete search exhausted)."""
        return self.status == PROVEN_REDUNDANT

    def describe(self) -> str:
        return (
            f"[{self.engine}] {self.status}: {self.backtracks} backtracks, "
            f"{self.decisions} decisions, {self.implications} implications"
        )


class StructuralAtpgError(Exception):
    """Raised for internal consistency violations (a generated vector that
    fails verification, an unknown engine name)."""


class CircuitContext:
    """Per-circuit structure shared by every fault's search.

    A view of the circuit's
    :class:`~repro.analysis_static.analysis.CircuitAnalysis` (order,
    fan-out, observability, learning, implication engine and closure memo)
    plus what only the searches need: levels and SCOAP.
    """

    def __init__(self, analysis: CircuitAnalysis):
        self.analysis = analysis
        self.order: list[Gate] = analysis.order
        #: Gates reading each net (structural fan-out).
        self.loads: dict[str, list[Gate]] = analysis.loads
        #: Nets from which at least one primary output is reachable.
        self.observable: set[str] = analysis.observable
        self.levels: dict[str, int] = analysis.circuit.levelize()

    @property
    def circuit(self) -> LogicCircuit:
        return self.analysis.circuit

    @property
    def learning(self) -> Optional[StaticLearning]:
        """The circuit's static learning, once someone has computed it."""
        return self.analysis.learning

    def fanout_nets(self, net: str) -> list[str]:
        """Output nets of the gates reading *net* (precomputed loads)."""
        return [gate.output for gate in self.loads[net]]

    def fanout_cone(self, net: str) -> set[str]:
        """Transitive fan-out of *net*, itself included."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(gate.output for gate in self.loads[current])
        return cone

    @cached_property
    def scoap(self) -> ScoapMeasures:
        """SCOAP controllability / observability (computed lazily, once)."""
        return scoap_measures(self.circuit)

    @property
    def implication_engine(self) -> ImplicationEngine:
        """Static-learning implication engine over the good machine."""
        return self._learned_analysis().engine

    def excitation_closure(self, fault: StuckAtFault) -> Optional[dict[str, int]]:
        """Necessary good-machine values of every test exciting *fault*.

        The implication closure of ``{fault.net: 1 - fault.value}`` under
        the learned implications, shared with the untestability prover
        through the analysis's closure memo (a fresh dict per call); None
        means the activating value is unreachable (the fault is statically
        proven unexcitable).
        """
        return self._learned_analysis().closure(fault.net, 1 - fault.value)

    def _learned_analysis(self) -> CircuitAnalysis:
        """The analysis, seeded here with a learning pass if nobody seeded it."""
        analysis = self.analysis
        if analysis.learning is None:
            analysis.seed(learn_implications(self.circuit))
        return analysis


_CONTEXTS: "weakref.WeakKeyDictionary[LogicCircuit, CircuitContext]" = (
    weakref.WeakKeyDictionary()
)


def circuit_context(
    circuit: LogicCircuit, learning: Optional[StaticLearning] = None
) -> CircuitContext:
    """The (cached) shared context for *circuit*.

    A cached context is rebuilt with the circuit's analysis when *circuit*
    has been extended since it was derived (its
    :attr:`~LogicCircuit.version` moved), so a stale fan-out or
    observability map can never yield an unsound ``proven_redundant``.
    *learning*, when given, must be the static learning of *circuit* as it
    is now; it seeds an analysis that has none yet, which then never runs
    its own learning pass.
    """
    analysis = circuit_analysis(circuit, learning)
    context = _CONTEXTS.get(circuit)
    if context is None or context.analysis is not analysis:
        context = CircuitContext(analysis)
        _CONTEXTS[circuit] = context
    return context


class StructuralAtpg:
    """Base class: static screening, pattern fill and verification.

    Subclasses implement :meth:`_search` and may assume the fault is
    neither dead-cone nor statically unexcitable -- :meth:`generate`
    resolves those outright (they are sound proofs, and resolving them here
    keeps every engine at least as strong as the static prover's
    excitation/observability screens).
    """

    #: Registry name; subclasses override.
    name = ""
    #: Whether an exhausted search is a completeness proof.  Engines that
    #: can give up heuristically must keep this False and report ``aborted``.
    complete = True

    def generate(
        self,
        circuit: LogicCircuit,
        fault: StuckAtFault,
        options: PodemOptions | None = None,
    ) -> StructuralResult:
        """Resolve *fault* to tested / proven_redundant / aborted."""
        options = options or PodemOptions()
        context = circuit_context(circuit)
        if fault.net not in context.loads:
            raise ValueError(f"fault net {fault.net!r} is not in the circuit")
        if fault.net not in context.observable:
            return StructuralResult(
                PROVEN_REDUNDANT, None, implications=1, engine=self.name
            )
        closure = context.excitation_closure(fault)
        if closure is None:
            return StructuralResult(
                PROVEN_REDUNDANT, None, implications=1, engine=self.name
            )
        result = self._search(context, fault, closure, options)
        if result.status == TESTED:
            self._verify(circuit, fault, result.pattern)
        return result

    __call__ = generate

    def _search(
        self,
        context: CircuitContext,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ) -> StructuralResult:
        raise NotImplementedError  # pragma: no cover - abstract

    def _fill(
        self,
        context: CircuitContext,
        assignments: dict[str, int],
        options: PodemOptions,
    ) -> dict[str, int]:
        """Complete a partial primary-input cube with the fill value."""
        return {
            net: assignments.get(net, options.fill_value)
            for net in context.circuit.primary_inputs
        }

    def _verify(
        self, circuit: LogicCircuit, fault: StuckAtFault, pattern: dict[str, int]
    ) -> None:
        """Check the generated vector really detects the fault (fail loud).

        One forced-net reference simulation per successful fault: cheap next
        to the search, and it turns any engine soundness bug into an
        immediate, attributable error instead of silently corrupting
        campaign coverage.
        """
        bits = [pattern[n] for n in circuit.primary_inputs]
        good = simulate_with_forced_net(circuit, bits, fault.net, 1 - fault.value)
        bad = simulate_with_forced_net(circuit, bits, fault.net, fault.value)
        if all(good[n] == bad[n] for n in circuit.primary_outputs):
            raise StructuralAtpgError(
                f"engine {self.name!r} produced a non-detecting vector for "
                f"{fault.key}: {pattern!r}"
            )


#: Registered structural ATPG engines, keyed by name (the values accepted
#: by ``CampaignSpec.atpg_engine``).  Mirrors ``PACKED_SIMULATORS``.
ATPG_ENGINES: dict[str, StructuralAtpg] = {}


def register_atpg_engine(engine: StructuralAtpg, replace: bool = False) -> StructuralAtpg:
    """Register *engine* under ``engine.name``; returns it for chaining."""
    if engine.name in ATPG_ENGINES and not replace:
        raise ValueError(
            f"ATPG engine {engine.name!r} is already registered; "
            f"pass replace=True to override"
        )
    ATPG_ENGINES[engine.name] = engine
    return engine


def get_atpg_engine(name: str) -> StructuralAtpg:
    """Look up a registered engine by name."""
    try:
        return ATPG_ENGINES[name]
    except KeyError:
        raise StructuralAtpgError(
            f"unknown ATPG engine {name!r}; registered engines: {atpg_engine_names()}"
        ) from None


def atpg_engine_names() -> tuple[str, ...]:
    """Names of all registered engines, sorted."""
    return tuple(sorted(ATPG_ENGINES))
