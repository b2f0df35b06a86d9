"""Structural untestability proofs for stuck-at and transition faults.

A stuck-at fault ``net/sa-v`` needs a test that (a) *excites* it -- drives
``net`` to ``1-v`` in the good machine -- and (b) *observes* it -- sensitizes
a path from ``net`` to a primary output.  Each half admits a purely static
refutation:

* **dead cone**: no primary output is even reachable from ``net``;
* **unexcitable**: the implication closure of ``{net: 1-v}`` (ternary
  propagation plus learned implications, all *necessary* consequences) is
  contradictory, so no input vector sets the net to ``1-v``;
* **unobservable**: a D-propagation reachability sweep shows the
  good/faulty difference at ``net`` cannot reach any primary output.  A
  gate passes the difference only if, for some assignment of its
  difference-free side inputs consistent with the excitation implications,
  its output still depends on the difference-carrying inputs.  Side inputs
  carry equal values in both machines and the implied values are necessary
  in *every* exciting test, so a blocked frontier is a proof, not a
  heuristic.

Every check is conservative (sound, incomplete): a returned
:class:`StaticProof` is a guarantee the fault is untestable -- the property
suite cross-checks this against PODEM's search-exhausted verdicts -- while
the absence of a proof says nothing.

Transition faults reduce to the stuck-at machinery: a slow-to-rise /
slow-to-fall fault on ``net`` needs a capture pattern detecting
``net`` stuck at the launch value *and* a launch pattern setting ``net`` to
the launch value, so it is proven untestable by a stuck-at proof for the
capture fault or by the launch value being unreachable.

The prover reads the circuit's shared
:class:`~repro.analysis_static.analysis.CircuitAnalysis`: its observability,
its learned implication engine and its per-literal closure memo, so the
excitation closure of a fault is computed once whether the prover or
structural ATPG asks first.  The unobservable sweep runs on int net ids and
walks only the fault site's fan-out cone, in topological order, with each
gate's pass/block answer read from a table per gate type and tie pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable, Optional

from ..logic.gates import GateType
from .analysis import circuit_analysis
from .implication import (
    UNKNOWN,
    StaticLearning,
    learn_implications,
    pattern_relation,
    tie_pattern,
)

if TYPE_CHECKING:
    from ..faults.stuck_at import StuckAtFault
    from ..faults.transition import TransitionFault
    from ..logic.netlist import LogicCircuit

#: Proof reasons.
DEAD_CONE = "dead-cone"
UNEXCITABLE = "unexcitable"
UNOBSERVABLE = "unobservable"
LAUNCH_IMPOSSIBLE = "launch-impossible"

#: Sweep state of a difference-carrying gate input (side inputs hold 0, 1
#: or :data:`~repro.analysis_static.implication.UNKNOWN`).
CARRYING = 3


@dataclass(frozen=True)
class StaticProof:
    """A structural proof that one fault is untestable."""

    fault_key: str
    reason: str
    detail: str = ""

    def describe(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.fault_key} proven untestable ({self.reason}){suffix}"


@lru_cache(maxsize=None)
def _pass_table(gate_type: GateType, pins: tuple[int, ...]) -> tuple[bool, ...]:
    """Might the gate's output differ between the good and faulty machine?

    Indexed by ``sum(state[p] * 4**p)`` over the gate's distinct inputs,
    where a state is the implied good value of a side input (0, 1 or
    UNKNOWN) or :data:`CARRYING`.  Group the truth-table rows consistent
    with the implied side values by the values of the side inputs; the
    difference can pass only if some group produces both output values.
    Side inputs hold identical, implication-consistent values in both
    machines, while difference-carrying inputs are left free in either
    machine -- an over-approximation, hence sound for blocking claims.
    """
    width = max(pins) + 1
    rows = pattern_relation(gate_type, pins, width)
    table = []
    for key in range(4**width):
        states = [(key // 4**position) % 4 for position in range(width)]
        side = [p for p, state in enumerate(states) if state != CARRYING]
        groups: dict[tuple[int, ...], set[int]] = {}
        passes = False
        for row in rows:
            if any(states[p] not in (UNKNOWN, row[p]) for p in side):
                continue
            outs = groups.setdefault(tuple(row[p] for p in side), set())
            outs.add(row[-1])
            if len(outs) > 1:
                passes = True
                break
        table.append(passes)
    return tuple(table)


class StaticUntestabilityProver:
    """Per-circuit prover: cheap per-fault checks over the circuit's analysis.

    The prover reads the shared
    :class:`~repro.analysis_static.analysis.CircuitAnalysis`: its
    observability, its learned implication engine and its closure memo, so
    a fault literal the prover closes is not closed again by structural
    ATPG.  *learning* is the circuit's :class:`StaticLearning` when the
    caller already has it (a campaign reuses the lint gate's pass); with
    None, the prover learns here unless the analysis is already seeded.
    """

    def __init__(
        self, circuit: "LogicCircuit", learning: Optional[StaticLearning] = None
    ):
        self.circuit = circuit
        analysis = circuit_analysis(circuit, learning)
        if analysis.learning is None:
            analysis.seed(learn_implications(circuit))
        self.analysis = analysis
        self.learning = analysis.learning
        self.engine = analysis.engine
        #: Nets from which at least one primary output is reachable.
        self.observable = analysis.observable
        ids = self.engine.ids
        self._is_output = bytearray(len(ids))
        for net in circuit.primary_outputs:
            self._is_output[ids[net]] = 1
        position = {gate.name: index for index, gate in enumerate(analysis.order)}
        #: Topological positions of the gates reading each net id.
        self._readers = [[] for _ in ids]
        for net, gates in analysis.loads.items():
            self._readers[ids[net]] = [position[gate.name] for gate in gates]
        #: Per gate, in topological order: distinct input ids, output id and
        #: the difference-pass table.
        self._sweep = [
            (
                tuple(ids[net] for net in dict.fromkeys(gate.inputs)),
                ids[gate.output],
                _pass_table(gate.gate_type, tie_pattern(gate.inputs, gate.output)[0]),
            )
            for gate in analysis.order
        ]

    # ------------------------------------------------------------------ #
    # Stuck-at.
    # ------------------------------------------------------------------ #
    def prove_stuck_at(self, net: str, value: int) -> Optional[tuple[str, str]]:
        """A ``(reason, detail)`` proof for ``net/sa-value``, or None."""
        if net not in self.observable:
            return DEAD_CONE, f"no primary output in the fan-out cone of {net!r}"
        implied = self.analysis.closure_delta(net, 1 - value)
        if implied is None:
            return (
                UNEXCITABLE,
                f"implication proves net {net!r} can never be {1 - value}",
            )
        if self._propagation_blocked(self.engine.ids[net], self.engine.values(implied)):
            return (
                UNOBSERVABLE,
                f"the difference at {net!r} cannot reach a primary output",
            )
        return None

    def _propagation_blocked(self, net: int, implied: bytearray) -> bool:
        """Can the good/faulty difference at net id *net* reach a primary output?

        Forward sweep, in topological order, over the fan-out cone of *net*
        and the over-approximate set of difference-carrying nets; True means
        every path is provably blocked under the (necessary) excitation
        implications *implied* (good value per net id).
        """
        is_output, readers, sweep = self._is_output, self._readers, self._sweep
        if is_output[net]:
            return False
        carrying = bytearray(len(implied))
        carrying[net] = 1
        heap = list(readers[net])
        queued = set(heap)
        while heap:
            inputs, output, passes = sweep[heappop(heap)]
            key = 0
            for input_id in reversed(inputs):
                key = 4 * key + (CARRYING if carrying[input_id] else implied[input_id])
            if not passes[key]:
                continue
            carrying[output] = 1
            if is_output[output]:
                return False
            for reader in readers[output]:
                if reader not in queued:
                    queued.add(reader)
                    heappush(heap, reader)
        return True

    # ------------------------------------------------------------------ #
    # Transition.
    # ------------------------------------------------------------------ #
    def prove_transition(self, net: str, launch_value: int) -> Optional[tuple[str, str]]:
        """Proof for a transition fault launching from *launch_value* on *net*.

        The capture pattern is exactly a test for ``net`` stuck at the
        launch value; the launch pattern needs ``net = launch_value`` to be
        reachable at all.
        """
        capture = self.prove_stuck_at(net, launch_value)
        if capture is not None:
            return capture
        if self.analysis.closure_delta(net, launch_value) is None:
            return (
                LAUNCH_IMPOSSIBLE,
                f"implication proves net {net!r} can never be {launch_value}",
            )
        return None


def prove_stuck_at_untestable(
    circuit: "LogicCircuit",
    faults: Iterable["StuckAtFault"],
    prover: StaticUntestabilityProver | None = None,
) -> dict[str, StaticProof]:
    """Proofs for every provably untestable stuck-at fault, keyed by fault key."""
    prover = prover or StaticUntestabilityProver(circuit)
    proofs: dict[str, StaticProof] = {}
    for fault in faults:
        found = prover.prove_stuck_at(fault.net, fault.value)
        if found is not None:
            reason, detail = found
            proofs[fault.key] = StaticProof(fault.key, reason, detail)
    return proofs


def prove_transition_untestable(
    circuit: "LogicCircuit",
    faults: Iterable["TransitionFault"],
    prover: StaticUntestabilityProver | None = None,
) -> dict[str, StaticProof]:
    """Proofs for every provably untestable transition fault, keyed by fault key."""
    prover = prover or StaticUntestabilityProver(circuit)
    proofs: dict[str, StaticProof] = {}
    for fault in faults:
        found = prover.prove_transition(fault.net, fault.launch_value)
        if found is not None:
            reason, detail = found
            proofs[fault.key] = StaticProof(fault.key, reason, detail)
    return proofs
