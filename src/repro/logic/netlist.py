"""Gate-level combinational netlists.

A :class:`LogicCircuit` is the structural substrate for fault modeling and
ATPG: named nets, primary inputs/outputs, and gates from
:class:`~repro.logic.gates.GateType`.  It also knows how to levelize itself
(the logic depth the paper quotes for the full-adder example) and how to
expand into a transistor-level circuit for SPICE experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .gates import GateType, evaluate_gate


class LogicCircuitError(Exception):
    """Raised for malformed gate-level netlists."""


@dataclass(frozen=True)
class CircuitStats:
    """Structural profile of one circuit (see :meth:`LogicCircuit.stats`)."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_nets: int
    depth: int
    #: Gate count per :class:`~repro.logic.gates.GateType` value, e.g.
    #: ``{"NAND2": 14, "INV": 14}``; types absent from the circuit are omitted.
    gate_counts: dict[str, int] = field(default_factory=dict)
    #: Histogram of net fan-out: ``{loads: number of nets with that many
    #: loads}``.  Primary outputs with no readers count as zero-load nets.
    fanout_histogram: dict[int, int] = field(default_factory=dict)
    #: SCOAP testability roll-up (:func:`repro.analysis_static.scoap
    #: .scoap_summary`): ``max_cc`` / ``mean_cc`` / ``max_co`` / ``mean_co``
    #: / ``unreachable``.  None unless :meth:`LogicCircuit.stats` was asked
    #: for it with ``include_scoap=True``.
    scoap: Optional[dict] = None

    @property
    def max_fanout(self) -> int:
        return max(self.fanout_histogram, default=0)

    def describe(self) -> str:
        """One-line summary used by campaign and benchmark reports."""
        gates = ", ".join(f"{count} {name}" for name, count in sorted(self.gate_counts.items()))
        return (
            f"{self.name or 'circuit'}: {self.num_inputs} in / {self.num_outputs} out, "
            f"{self.num_gates} gates ({gates}), depth {self.depth}, "
            f"max fan-out {self.max_fanout}"
        )


@dataclass(frozen=True)
class Gate:
    """One gate instance: a named, typed node of the netlist."""

    name: str
    gate_type: GateType
    inputs: tuple[str, ...]
    output: str

    def evaluate(self, values: dict[str, int]) -> int:
        """Evaluate the gate on a net-value assignment."""
        return evaluate_gate(self.gate_type, [values[n] for n in self.inputs])


class LogicCircuit:
    """A combinational gate-level netlist."""

    #: Structural version, bumped by every ``add_*`` call (see :attr:`version`).
    _version = 0

    def __init__(self, name: str = ""):
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._driver: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._inputs:
            raise LogicCircuitError(f"primary input {net!r} already declared")
        if net in self._driver:
            raise LogicCircuitError(f"net {net!r} is already driven by gate {self._driver[net]!r}")
        self._inputs.append(net)
        self._version += 1
        return net

    def add_inputs(self, nets: Iterable[str]) -> list[str]:
        return [self.add_input(n) for n in nets]

    def add_output(self, net: str) -> str:
        """Declare a primary output net (must eventually be driven)."""
        if net in self._outputs:
            raise LogicCircuitError(f"primary output {net!r} already declared")
        self._outputs.append(net)
        self._version += 1
        return net

    def add_gate(
        self,
        name: str,
        gate_type: GateType | str,
        inputs: Sequence[str],
        output: str,
    ) -> Gate:
        """Add a gate; the output net must not already be driven."""
        gate_type = GateType(gate_type)
        if name in self._gates:
            raise LogicCircuitError(f"duplicate gate name {name!r}")
        if len(inputs) != gate_type.num_inputs:
            raise LogicCircuitError(
                f"gate {name!r} ({gate_type.value}) expects {gate_type.num_inputs} inputs, "
                f"got {len(inputs)}"
            )
        if output in self._driver:
            raise LogicCircuitError(
                f"net {output!r} already driven by gate {self._driver[output]!r}"
            )
        if output in self._inputs:
            raise LogicCircuitError(f"net {output!r} is a primary input and cannot be driven")
        gate = Gate(name=name, gate_type=gate_type, inputs=tuple(inputs), output=output)
        self._gates[name] = gate
        self._driver[output] = name
        self._version += 1
        return gate

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Structural version: changes whenever an input, output or gate is added.

        Caches of derived per-circuit structure compare it to notice that
        the netlist was extended after they were built.
        """
        return self._version

    @property
    def primary_inputs(self) -> list[str]:
        return list(self._inputs)

    @property
    def primary_outputs(self) -> list[str]:
        return list(self._outputs)

    @property
    def gates(self) -> list[Gate]:
        return list(self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise LogicCircuitError(f"no gate named {name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._gates

    def nets(self) -> list[str]:
        """All nets: primary inputs plus every gate output."""
        nets = list(self._inputs)
        nets.extend(g.output for g in self._gates.values())
        return nets

    def driver_of(self, net: str) -> Gate | None:
        """Gate driving *net*, or None for primary inputs."""
        name = self._driver.get(net)
        return self._gates[name] if name is not None else None

    def loads_of(self, net: str) -> list[tuple[Gate, int]]:
        """(gate, input-pin index) pairs reading *net*."""
        loads = []
        for gate in self._gates.values():
            for index, inp in enumerate(gate.inputs):
                if inp == net:
                    loads.append((gate, index))
        return loads

    def fanout_nets(self, net: str) -> list[str]:
        """Output nets of the gates directly reading *net*."""
        return [gate.output for gate, _ in self.loads_of(net)]

    def gate_count(self, gate_type: GateType | str | None = None) -> int:
        """Number of gates, optionally restricted to one type."""
        if gate_type is None:
            return len(self._gates)
        gate_type = GateType(gate_type)
        return sum(1 for g in self._gates.values() if g.gate_type == gate_type)

    # ------------------------------------------------------------------ #
    # Structure checks and ordering.
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check that the netlist is a closed combinational circuit."""
        driven = set(self._inputs) | set(self._driver)
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in driven:
                    raise LogicCircuitError(
                        f"gate {gate.name!r} reads undriven net {net!r}"
                    )
        for net in self._outputs:
            if net not in driven:
                raise LogicCircuitError(f"primary output {net!r} is not driven")
        # Topological order raises on combinational loops.
        self.topological_order()

    def topological_order(self) -> list[Gate]:
        """Gates in topological (input-to-output) order.

        Kahn's algorithm over pin counts: O(gates + pins) even on deep
        chain-shaped circuits, and deterministic (declaration order breaks
        ties), so derived artifacts like ``.bench`` output are stable.
        """
        placed = set(self._inputs)
        pending: dict[str, int] = {}
        readers: dict[str, list[str]] = {}
        ready: deque[str] = deque()
        for name, gate in self._gates.items():
            unplaced = [net for net in gate.inputs if net not in placed]
            pending[name] = len(unplaced)
            for net in unplaced:
                readers.setdefault(net, []).append(name)
            if not unplaced:
                ready.append(name)
        order: list[Gate] = []
        while ready:
            gate = self._gates[ready.popleft()]
            order.append(gate)
            for reader in readers.get(gate.output, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if len(order) != len(self._gates):
            emitted = {gate.name for gate in order}
            remaining = sorted(name for name in self._gates if name not in emitted)
            raise LogicCircuitError(
                f"combinational loop or undriven nets involving gates: {remaining[:5]}"
            )
        return order

    def levelize(self) -> dict[str, int]:
        """Topological level of every net (primary inputs are level 0)."""
        levels = {net: 0 for net in self._inputs}
        for gate in self.topological_order():
            levels[gate.output] = 1 + max(levels[n] for n in gate.inputs)
        return levels

    @property
    def depth(self) -> int:
        """Logic depth: the largest primary-output level."""
        levels = self.levelize()
        if not self._outputs:
            return max(levels.values(), default=0)
        return max(levels[n] for n in self._outputs)

    # ------------------------------------------------------------------ #
    # Cones.
    # ------------------------------------------------------------------ #
    def fanin_cone(self, net: str) -> set[str]:
        """All nets in the transitive fan-in of *net* (including itself)."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            driver = self.driver_of(current)
            if driver is not None:
                stack.extend(driver.inputs)
        return cone

    def fanout_cone(self, net: str) -> set[str]:
        """All nets in the transitive fan-out of *net* (including itself)."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self.fanout_nets(current))
        return cone

    def stats(self, include_scoap: bool = False) -> CircuitStats:
        """Structural profile: gate counts by type, depth, fan-out histogram.

        One pass over the gates counts loads and types; the depth adds one
        levelization, so the whole profile is linear in gates + pins.
        ``include_scoap=True`` additionally attaches the SCOAP testability
        roll-up (two more topological passes) as :attr:`CircuitStats.scoap`.
        """
        gate_counts: dict[str, int] = {}
        loads = {net: 0 for net in self.nets()}
        for gate in self._gates.values():
            gate_counts[gate.gate_type.value] = gate_counts.get(gate.gate_type.value, 0) + 1
            for net in gate.inputs:
                loads[net] = loads.get(net, 0) + 1
        fanout_histogram: dict[int, int] = {}
        for count in loads.values():
            fanout_histogram[count] = fanout_histogram.get(count, 0) + 1
        scoap = None
        if include_scoap:
            # Function-level import: analysis_static sits on top of logic.
            from ..analysis_static.scoap import scoap_summary

            scoap = scoap_summary(self)
        return CircuitStats(
            name=self.name,
            num_inputs=len(self._inputs),
            num_outputs=len(self._outputs),
            num_gates=len(self._gates),
            num_nets=len(loads),
            depth=self.depth,
            gate_counts=gate_counts,
            fanout_histogram=fanout_histogram,
            scoap=scoap,
        )

    def summary(self) -> str:
        """One-line structural summary (the numbers quoted in Section 4.3)."""
        s = self.stats()
        parts = ", ".join(f"{count} {name}" for name, count in sorted(s.gate_counts.items()))
        return (
            f"LogicCircuit {self.name!r}: {s.num_inputs} inputs, "
            f"{s.num_outputs} outputs, {s.num_gates} gates ({parts}), depth {s.depth}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<LogicCircuit {self.name!r} gates={len(self._gates)}>"
