"""Ternary (0/1/X) static implication over int net ids, with pairwise static learning.

The engine reasons about *necessary consequences* of partial net-value
assignments.  Every gate contributes a relation -- the set of value rows its
truth table allows over its **distinct** nets (tied pins collapse, so e.g.
``XOR2(x, x)`` only allows rows with output 0) -- and a worklist pass checks
each touched relation against the currently known values:

* if no row survives, the assignment is **contradictory** (no input vector
  produces it);
* if every surviving row agrees on a still-unknown net, that value is
  **forced** and propagates further, forward and backward alike.

Because only forced values are ever derived, the engine is *sound but
incomplete*: ``imply`` returning a value map means every complete consistent
assignment extends it, and ``imply`` returning None means the seed
assignment is unsatisfiable -- but satisfiable seeds may still come back
with few derived values.

The kernel works on int net ids, numbered in :meth:`LogicCircuit.nets`
order.  Net values live in a flat ``bytearray`` where :data:`UNKNOWN` (2)
marks a net no assignment has reached, and a single-net assignment is the
int *literal* ``2 * id + value``, so ``literal ^ 1`` is its negation.  Each
gate relation is precomputed once as a **ternary lookup table**: a gate over
``k`` distinct nets (at most 4: three inputs plus the output) is indexed by
``sum(value[p] * 3**p)`` over its positions, and each of the ``3**k`` (at
most 81) entries holds either None (conflict) or the ``(position, value)``
pairs the known values force, in position order.  Tables depend only on the
gate type and its tie pattern, so they are cached across gates and circuits.
Learned implications are int tuples indexed by literal.

:func:`learn_implications` adds the classical pairwise static-learning pass:
assert each single net value, record what it forces elsewhere, and keep the
contrapositives.  The learned pairs feed back into
:class:`ImplicationEngine` to strengthen later ``imply`` calls.  A circuit's
learned engine and its per-literal closures are shared by lint, the
untestability prover and structural ATPG through
:class:`~repro.analysis_static.analysis.CircuitAnalysis`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from ..logic.gates import GateType, evaluate_gate

if TYPE_CHECKING:
    from ..logic.netlist import LogicCircuit

#: A single-net assignment: ``(net, value)`` with value 0 or 1.
Literal = tuple[str, int]

#: Kernel value of a net no assignment has reached yet.
UNKNOWN = 2


@lru_cache(maxsize=8192)
def _gate_relation(
    gate_type: GateType, inputs: tuple[str, ...], output: str
) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The gate's relation over its distinct nets.

    Returns ``(nets, rows)`` where ``nets`` lists the distinct input nets
    followed by the output net, and each row assigns one value per entry of
    ``nets``.  Tied pins (the same net on several inputs) are merged, so
    rows where tied pins would disagree simply do not exist -- this is what
    lets the engine prove ``XOR2(x, x)`` constant 0.
    """
    in_nets = tuple(dict.fromkeys(inputs))
    rows: list[tuple[int, ...]] = []
    for value in range(2 ** len(in_nets)):
        assign = {
            net: (value >> (len(in_nets) - 1 - i)) & 1 for i, net in enumerate(in_nets)
        }
        out = evaluate_gate(gate_type, [assign[net] for net in inputs])
        if output in assign:
            # Self-loop (only possible in cyclic netlists): keep the row
            # only when it is a fixed point of the gate function.
            if assign[output] != out:
                continue
            rows.append(tuple(assign[net] for net in in_nets))
        else:
            rows.append(tuple(assign[net] for net in in_nets) + (out,))
    nets = in_nets if output in in_nets else in_nets + (output,)
    return nets, tuple(rows)


def tie_pattern(inputs: tuple[str, ...], output: str) -> tuple[tuple[int, ...], int]:
    """A gate's pins as positions of its distinct nets: ``(pins, output)``.

    Positions follow :func:`_gate_relation`'s net order (distinct inputs in
    first-pin order, then the output unless it is tied to an input), so two
    gates of one type with the same pattern share one relation shape.
    """
    distinct = list(dict.fromkeys(inputs))
    pins = tuple(distinct.index(net) for net in inputs)
    out = distinct.index(output) if output in distinct else len(distinct)
    return pins, out


def pattern_relation(
    gate_type: GateType, pins: tuple[int, ...], out: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of :func:`_gate_relation` for a gate with this tie pattern."""
    _, rows = _gate_relation(gate_type, tuple(f"n{p}" for p in pins), f"n{out}")
    return rows


@lru_cache(maxsize=None)
def _ternary_table(
    gate_type: GateType, pins: tuple[int, ...], out: int
) -> tuple[Optional[tuple[tuple[int, int], ...]], ...]:
    """The gate relation as a lookup table over ternary position values.

    Entry ``sum(value[p] * 3**p)`` (each value 0, 1 or :data:`UNKNOWN`) is
    None when no row agrees with the known values, else the
    ``(position, value)`` pairs on which every agreeing row coincides at a
    still-unknown position, in position order.
    """
    rows = pattern_relation(gate_type, pins, out)
    width = max(pins + (out,)) + 1
    table: list[Optional[tuple[tuple[int, int], ...]]] = []
    for key in range(3**width):
        known = [(key // 3**position) % 3 for position in range(width)]
        consistent = [
            row
            for row in rows
            if all(k == UNKNOWN or k == bit for k, bit in zip(known, row))
        ]
        if not consistent:
            table.append(None)
            continue
        first = consistent[0]
        table.append(
            tuple(
                (position, first[position])
                for position in range(width)
                if known[position] == UNKNOWN
                and all(row[position] == first[position] for row in consistent)
            )
        )
    return tuple(table)


class ImplicationEngine:
    """Worklist constant propagation over one circuit.

    ``learned`` maps a literal to the literals it is known to force (from
    :func:`learn_implications`); ``constants`` seeds extra net values proven
    elsewhere (e.g. learning-discovered constants).  Both strengthen every
    subsequent :meth:`imply` call; an entry naming a net that is not in the
    circuit, or a value other than 0 or 1, raises :class:`ValueError`.

    The engine computes its :attr:`baseline` -- the closure of the empty
    assignment, i.e. all structurally forced constants -- once on
    construction, and every ``imply`` starts from that baseline.
    """

    def __init__(
        self,
        circuit: "LogicCircuit",
        learned: Mapping[Literal, tuple[Literal, ...]] | None = None,
        constants: Mapping[str, int] | None = None,
    ):
        gates = list(circuit)
        #: Net name of each id: :meth:`LogicCircuit.nets` order, then any
        #: undriven gate input (malformed netlists only).
        self.names: list[str] = list(
            dict.fromkeys([*circuit.nets(), *(net for g in gates for net in g.inputs)])
        )
        #: Id of each net name.
        self.ids: dict[str, int] = {net: i for i, net in enumerate(self.names)}
        self.learned: dict[Literal, tuple[Literal, ...]] = {
            key: tuple(value) for key, value in (learned or {}).items()
        }
        self._targets: list[tuple[int, ...]] = [()] * (2 * len(self.names))
        for (net, value), targets in self.learned.items():
            self._targets[self.literal(net, value)] = tuple(
                self.literal(*target) for target in targets
            )
        touch: list[list[int]] = [[] for _ in self.names]
        self._gates: list[tuple[tuple[int, ...], tuple[int, ...], tuple]] = []
        for index, gate in enumerate(gates):
            pins, out = tie_pattern(gate.inputs, gate.output)
            nets = list(dict.fromkeys(gate.inputs))
            if out == len(nets):
                nets.append(gate.output)
            ids = tuple(self.ids[net] for net in nets)
            self._gates.append(
                (ids, tuple(2 * i for i in ids), _ternary_table(gate.gate_type, pins, out))
            )
            for net in ids:
                touch[net].append(index)
        self._touch = touch
        values = bytearray([UNKNOWN]) * len(self.names)
        seeds = [self.literal(net, value) for net, value in (constants or {}).items()]
        order = self._propagate(
            values, seeds, deque(range(len(gates))), bytearray([1]) * len(gates)
        )
        if order is None:
            raise ValueError("contradictory seed constants for implication engine")
        self._baseline_values = values
        self.baseline: dict[str, int] = {self.names[lit >> 1]: lit & 1 for lit in order}

    # ------------------------------------------------------------------ #
    # Literals.
    # ------------------------------------------------------------------ #
    def literal(self, net: str, value: int) -> int:
        """The int literal of ``net = value``; ValueError for a bad net or value."""
        index = self.ids.get(net)
        if index is None:
            raise ValueError(f"net {net!r} (value {value!r}) is not in the circuit")
        if value not in (0, 1):
            raise ValueError(f"value {value!r} for net {net!r} is not 0 or 1")
        return 2 * index + int(value)

    def as_dict(self, delta: Iterable[int]) -> dict[str, int]:
        """The baseline plus *delta* literals as a fresh ``{net: value}`` map."""
        result = dict(self.baseline)
        names = self.names
        for lit in delta:
            result[names[lit >> 1]] = lit & 1
        return result

    def values(self, delta: Iterable[int]) -> bytearray:
        """The baseline plus *delta* literals as a fresh per-id value array."""
        values = bytearray(self._baseline_values)
        for lit in delta:
            values[lit >> 1] = lit & 1
        return values

    # ------------------------------------------------------------------ #
    # Core propagation.
    # ------------------------------------------------------------------ #
    def imply(self, assignments: Mapping[str, int]) -> Optional[dict[str, int]]:
        """Closure of *assignments* (plus the baseline), or None on conflict.

        The returned map contains every net value that holds in *every*
        complete consistent assignment extending *assignments*; None means
        no complete consistent assignment exists at all.  A net that is not
        in the circuit, or a value other than 0 or 1, raises ValueError.
        """
        delta = self.closure([self.literal(net, v) for net, v in assignments.items()])
        return None if delta is None else self.as_dict(delta)

    def closure(self, literals: list[int]) -> Optional[list[int]]:
        """The literals the baseline plus *literals* newly forces, or None.

        Literals come back in assignment order (the seeds included, unless
        the baseline already holds them); None means a conflict.
        """
        return self._propagate(
            bytearray(self._baseline_values),
            list(literals),
            deque(),
            bytearray(len(self._gates)),
        )

    def _propagate(
        self,
        values: bytearray,
        todo: list[int],
        work: deque[int],
        in_work: bytearray,
    ) -> Optional[list[int]]:
        """Run the worklist to a fixed point; *values* is updated in place.

        The literal stack *todo* is drained (LIFO) before the next gate
        leaves the FIFO *work* queue, and a gate's forced literals are
        pushed in position order, so results -- their order included -- do
        not depend on how the relations are represented.  A learned target
        already holding its value is not pushed (popping it would change
        nothing, since values are only ever set), and one holding the
        opposite value is the conflict popping it would have found.
        """
        targets, touch, gates = self._targets, self._touch, self._gates
        order: list[int] = []
        pop, push = todo.pop, todo.append
        while True:
            while todo:
                lit = pop()
                net = lit >> 1
                current = values[net]
                if current != UNKNOWN:
                    if current != lit & 1:
                        return None
                    continue
                values[net] = lit & 1
                order.append(lit)
                for target in targets[lit]:
                    known = values[target >> 1]
                    if known == UNKNOWN:
                        push(target)
                    elif known != target & 1:
                        return None
                for index in touch[net]:
                    if not in_work[index]:
                        in_work[index] = 1
                        work.append(index)
            if not work:
                return order
            index = work.popleft()
            in_work[index] = 0
            ids, base, table = gates[index]
            if len(ids) == 3:
                a, b, c = ids
                key = values[a] + 3 * values[b] + 9 * values[c]
            elif len(ids) == 4:
                a, b, c, d = ids
                key = values[a] + 3 * values[b] + 9 * values[c] + 27 * values[d]
            elif len(ids) == 2:
                a, b = ids
                key = values[a] + 3 * values[b]
            else:
                key = 0
                for net in reversed(ids):
                    key = 3 * key + values[net]
            forced = table[key]
            if forced is None:
                return None
            for position, value in forced:
                push(base[position] + value)


@dataclass(frozen=True)
class StaticLearning:
    """Result of the pairwise static-learning pass.

    ``implications`` maps each literal to the tuple of literals it forces
    (contrapositives included); ``constants`` collects every net proven to
    hold a fixed value -- structurally forced baseline constants plus nets
    whose opposite assignment was contradictory during learning.
    """

    implications: dict[Literal, tuple[Literal, ...]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)

    @property
    def num_implications(self) -> int:
        return sum(len(v) for v in self.implications.values())


def learn_implications(
    circuit: "LogicCircuit", engine: ImplicationEngine | None = None
) -> StaticLearning:
    """Pairwise static learning: assert each net value once, record what it forces.

    For every non-constant net ``n`` and value ``v``, close ``{n: v}``:

    * a conflict proves ``n`` is constant at ``1 - v``;
    * every newly derived value ``m = w`` yields the learned implication
      ``(n, v) => (m, w)`` *and* its contrapositive ``(m, 1-w) => (n, 1-v)``
      (modus tollens), which is how backward-unreachable conclusions become
      usable by later forward passes.
    """
    engine = engine or ImplicationEngine(circuit)
    constants = dict(engine.baseline)
    pairs: dict[int, dict[int, None]] = {}
    for net in circuit.nets():
        if net in constants:
            continue
        for value in (0, 1):
            source = engine.literal(net, value)
            delta = engine.closure([source])
            if delta is None:
                constants[net] = 1 - value
                continue
            for target in delta:
                if target >> 1 == source >> 1:
                    continue
                pairs.setdefault(source, {})[target] = None
                pairs.setdefault(target ^ 1, {})[source ^ 1] = None
    names = engine.names
    implications = {
        (names[source >> 1], source & 1): tuple(
            (names[target >> 1], target & 1) for target in targets
        )
        for source, targets in pairs.items()
    }
    return StaticLearning(implications=implications, constants=constants)
