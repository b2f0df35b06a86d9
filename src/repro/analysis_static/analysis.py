"""One per-circuit analysis shared by lint, the untestability prover and ATPG.

:class:`CircuitAnalysis` holds what every static consumer of a circuit
derives from it: the topological order, the fan-out map, the set of nets a
primary output is reachable from, the circuit's
:class:`~repro.analysis_static.implication.StaticLearning`, the **single**
learned :class:`~repro.analysis_static.implication.ImplicationEngine` (its
int net ids and baseline included) and a memo of single-literal closures.
:func:`circuit_analysis` caches one analysis per circuit object and rebuilds
it when the circuit's structural :attr:`~repro.logic.netlist.LogicCircuit.version`
moves, so nothing derived from an older netlist is ever reused.

The analysis never learns by itself: a consumer seeds it with the circuit's
learning (a campaign learns once, in its lint gate) before it asks for the
engine.  The closure memo is what lets the prover's ``imply({net: 1-v})``
*be* ATPG's excitation closure for ``net/sa-v``: each literal is closed
once per circuit version.  Entries are stored compactly, as the literals
the closure adds to the baseline, and every lookup builds a fresh dict.

The analysis needs a well-formed (closed, acyclic) circuit; lint consults
it only after its structural rules pass.
"""

from __future__ import annotations

import weakref
from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .implication import ImplicationEngine, StaticLearning

if TYPE_CHECKING:
    from ..logic.netlist import Gate, LogicCircuit


class CircuitAnalysis:
    """Derived structure of one circuit version (see the module docstring)."""

    def __init__(self, circuit: "LogicCircuit"):
        # Weak, so that the cache entry keyed by the circuit does not keep
        # the circuit -- and with it this analysis -- alive forever.
        self._circuit = weakref.ref(circuit)
        #: :attr:`LogicCircuit.version` this analysis was derived from.
        self.version = circuit.version
        self.order: list["Gate"] = circuit.topological_order()
        #: Gates reading each net (structural fan-out), in topological order.
        self.loads: dict[str, list["Gate"]] = {net: [] for net in circuit.nets()}
        for gate in self.order:
            for net in dict.fromkeys(gate.inputs):
                self.loads[net].append(gate)
        observable = set(circuit.primary_outputs)
        for gate in reversed(self.order):
            if gate.output in observable:
                observable.update(gate.inputs)
        #: Nets from which at least one primary output is reachable.
        self.observable = observable
        #: The circuit's static learning, once a consumer has seeded it.
        self.learning: Optional[StaticLearning] = None
        self._closures: dict[int, Optional[array]] = {}

    @property
    def circuit(self) -> "LogicCircuit":
        """The analysed circuit (its users hold it while they use the analysis)."""
        return self._circuit()

    def seed(self, learning: StaticLearning) -> StaticLearning:
        """Adopt *learning* unless one is already seeded; returns the seeded one.

        *learning* must be the static learning of the circuit as it is now.
        """
        if self.learning is None:
            self.learning = learning
        return self.learning

    @cached_property
    def engine(self) -> ImplicationEngine:
        """The learned implication engine (the analysis must be seeded)."""
        if self.learning is None:
            raise RuntimeError(
                f"the analysis of circuit {self.circuit.name!r} has no learning; "
                f"seed it before asking for the implication engine"
            )
        return ImplicationEngine(
            self.circuit,
            learned=self.learning.implications,
            constants=self.learning.constants,
        )

    def closure_delta(self, net: str, value: int) -> Optional[array]:
        """What closing ``{net: value}`` adds to the baseline, or None on conflict.

        Memoised per literal; the returned literal array is shared, so
        callers only read it.
        """
        engine = self.engine
        literal = engine.literal(net, value)
        try:
            return self._closures[literal]
        except KeyError:
            pass
        delta = engine.closure([literal])
        stored = None if delta is None else array("i", delta)
        self._closures[literal] = stored
        return stored

    def closure(self, net: str, value: int) -> Optional[dict[str, int]]:
        """``engine.imply({net: value})`` through the memo, as a fresh dict."""
        delta = self.closure_delta(net, value)
        return None if delta is None else self.engine.as_dict(delta)


_ANALYSES: "weakref.WeakKeyDictionary[LogicCircuit, CircuitAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def circuit_analysis(
    circuit: "LogicCircuit", learning: Optional[StaticLearning] = None
) -> CircuitAnalysis:
    """The (cached) analysis of *circuit* as it is now.

    A cached analysis is rebuilt when *circuit* has been extended since it
    was derived.  *learning*, when given, seeds an analysis that has none.
    """
    analysis = _ANALYSES.get(circuit)
    if analysis is None or analysis.version != circuit.version:
        analysis = CircuitAnalysis(circuit)
        _ANALYSES[circuit] = analysis
    if learning is not None:
        analysis.seed(learning)
    return analysis
