"""The four registered fault models of the reproduction.

Each adapter packages one model's universe builder, structural collapsing,
packed/serial fault-simulation hooks and deterministic ATPG behind the
:class:`~repro.campaign.model.FaultModel` protocol.  The legacy free
functions (``simulate_stuck_at``, ``run_obd_atpg``, ...) remain available as
thin wrappers over these adapters.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..analysis_static.untestable import (
    StaticProof,
    prove_stuck_at_untestable,
    prove_transition_untestable,
)
from ..atpg.fault_sim import (
    DetectionReport,
    _check_engine,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
)
from ..atpg.obd_atpg import generate_obd_test
from ..atpg.parallel_sim import (
    NUMPY_SIMULATORS,
    compile_for_engine,
    compiled_matches_engine,
    packed_simulate_obd,
    packed_simulate_path_delay,
    packed_simulate_stuck_at,
    packed_simulate_transition,
)
from ..atpg.path_delay_atpg import generate_path_delay_test
from ..atpg.podem import PodemOptions
from ..atpg.structural import get_atpg_engine
from ..atpg.two_pattern import generate_transition_test, pattern_tuple
from ..faults.base import FaultList
from ..faults.collapse import (
    collapse_stuck_at_dominance,
    collapse_stuck_at_faults,
    obd_equivalence_groups,
)
from ..faults.obd import ObdFault, obd_fault_universe
from ..faults.path_delay import PathDelayFault, path_delay_universe
from ..faults.stuck_at import StuckAtFault, stuck_at_universe
from ..faults.transition import TransitionFault, transition_fault_universe
from ..logic.compiled import CompiledCircuit
from ..logic.netlist import LogicCircuit
from .model import SINGLE_PATTERN, TWO_PATTERN, AtpgOutcome, register_model


def _dispatch(
    packed_fn, serial_fn, model_name, circuit, tests, faults, drop_detected, engine,
    compiled, word_bits,
):
    """Route one simulate() call to the right engine.

    ``"packed"``, ``"numpy"`` and ``"interp"`` all run the bit-parallel
    algorithm; the difference is the :class:`CompiledCircuit` flavor
    (backend, codegen, block width -- see
    :func:`~repro.atpg.parallel_sim.compile_for_engine`).  A caller-supplied
    *compiled* circuit is reused when its flavor matches the requested
    engine and *word_bits*, so repeated calls compile only once; on any
    mismatch -- including a non-default *word_bits* the prebuilt circuit
    does not have -- the call recompiles rather than silently simulating at
    the wrong width or through the wrong engine.
    """
    _check_engine(engine)
    if engine == "serial":
        return serial_fn(circuit, tests, faults, drop_detected=drop_detected)
    if not compiled_matches_engine(compiled, engine, word_bits):
        compiled = compile_for_engine(circuit, engine, word_bits)
    fn = NUMPY_SIMULATORS[model_name] if engine == "numpy" else packed_fn
    return fn(circuit, tests, faults, drop_detected=drop_detected, compiled=compiled)


class _StaticHooksMixin:
    """Default static-analysis hooks: no dominance collapsing, no proofs."""

    def collapse_dominance(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return self.collapse(circuit, faults)

    def prove_untestable(
        self, circuit: LogicCircuit, faults: FaultList
    ) -> dict[str, StaticProof]:
        return {}


class StuckAtModel(_StaticHooksMixin):
    """Classical single stuck-at model: single patterns, PODEM ATPG."""

    name = "stuck-at"
    pattern_kind = SINGLE_PATTERN
    description = "single stuck-at faults on every net, PODEM test generation"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return stuck_at_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        collapsed = collapse_stuck_at_faults(circuit)
        return faults.filtered(lambda f: f in collapsed)

    def collapse_dominance(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        collapsed = collapse_stuck_at_dominance(circuit)
        return faults.filtered(lambda f: f in collapsed)

    def prove_untestable(
        self, circuit: LogicCircuit, faults: FaultList
    ) -> dict[str, StaticProof]:
        return prove_stuck_at_untestable(circuit, faults)

    def simulate(
        self,
        circuit: LogicCircuit,
        tests: Sequence,
        faults: Iterable[StuckAtFault],
        *,
        drop_detected: bool = False,
        engine: str = "packed",
        compiled: CompiledCircuit | None = None,
        word_bits: int | None = None,
    ) -> DetectionReport:
        return _dispatch(
            packed_simulate_stuck_at,
            serial_simulate_stuck_at,
            self.name,
            circuit,
            tests,
            faults,
            drop_detected,
            engine,
            compiled,
            word_bits,
        )

    #: Structural engine used when a caller does not pick one explicitly.
    default_atpg_engine = "podem"

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: StuckAtFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
    ) -> AtpgOutcome:
        engine = get_atpg_engine(atpg_engine or self.default_atpg_engine)
        result = engine.generate(circuit, fault, options)
        tests = (pattern_tuple(circuit, result.pattern),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
            implications=result.implications,
        )


class TransitionModel(_StaticHooksMixin):
    """Classical transition (slow-to-rise / slow-to-fall) model."""

    name = "transition"
    pattern_kind = TWO_PATTERN
    description = "transition faults on every net, launch/capture two-pattern ATPG"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return transition_fault_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return faults

    def simulate(
        self,
        circuit: LogicCircuit,
        tests: Sequence,
        faults: Iterable[TransitionFault],
        *,
        drop_detected: bool = False,
        engine: str = "packed",
        compiled: CompiledCircuit | None = None,
        word_bits: int | None = None,
    ) -> DetectionReport:
        return _dispatch(
            packed_simulate_transition,
            serial_simulate_transition,
            self.name,
            circuit,
            tests,
            faults,
            drop_detected,
            engine,
            compiled,
            word_bits,
        )

    def prove_untestable(
        self, circuit: LogicCircuit, faults: FaultList
    ) -> dict[str, StaticProof]:
        return prove_transition_untestable(circuit, faults)

    #: Structural engine for the capture (stuck-at) half of the search.
    default_atpg_engine = "podem"

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: TransitionFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
    ) -> AtpgOutcome:
        result = generate_transition_test(
            circuit, fault, options=options,
            atpg_engine=atpg_engine or self.default_atpg_engine,
        )
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
            implications=result.implications,
        )


class PathDelayModel(_StaticHooksMixin):
    """Path-delay model: non-robust sensitization over structural paths."""

    name = "path-delay"
    pattern_kind = TWO_PATTERN
    description = "path-delay faults along structural paths, non-robust sensitization"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return path_delay_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return faults

    def simulate(
        self,
        circuit: LogicCircuit,
        tests: Sequence,
        faults: Iterable[PathDelayFault],
        *,
        drop_detected: bool = False,
        engine: str = "packed",
        compiled: CompiledCircuit | None = None,
        word_bits: int | None = None,
    ) -> DetectionReport:
        return _dispatch(
            packed_simulate_path_delay,
            serial_simulate_path_delay,
            self.name,
            circuit,
            tests,
            faults,
            drop_detected,
            engine,
            compiled,
            word_bits,
        )

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: PathDelayFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
    ) -> AtpgOutcome:
        # atpg_engine is accepted for interface uniformity: the path-delay
        # search is objective-driven, not a stuck-at search to delegate.
        result = generate_path_delay_test(circuit, fault, options=options)
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
        )


class ObdModel(_StaticHooksMixin):
    """The paper's oxide-breakdown model with input-specific excitation."""

    name = "obd"
    pattern_kind = TWO_PATTERN
    description = "transistor-level OBD defect sites, input-specific two-pattern ATPG"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return obd_fault_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        """One representative per gate-local equivalence group.

        Faults in a group share identical excitation-condition sets (e.g. NA
        and NB of a NAND), so any test set covering the representative covers
        the whole group.
        """
        groups = obd_equivalence_groups(faults)
        representatives = {members[0].key for members in groups.values()}
        return faults.filtered(lambda f: f.key in representatives)

    def simulate(
        self,
        circuit: LogicCircuit,
        tests: Sequence,
        faults: Iterable[ObdFault],
        *,
        drop_detected: bool = False,
        engine: str = "packed",
        compiled: CompiledCircuit | None = None,
        word_bits: int | None = None,
    ) -> DetectionReport:
        return _dispatch(
            packed_simulate_obd,
            serial_simulate_obd,
            self.name,
            circuit,
            tests,
            faults,
            drop_detected,
            engine,
            compiled,
            word_bits,
        )

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: ObdFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
    ) -> AtpgOutcome:
        # atpg_engine is accepted for interface uniformity: OBD excitation
        # cubes pin the defective gate's inputs, a constrained search the
        # structural stuck-at engines do not model.
        result = generate_obd_test(circuit, fault, options=options)
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
        )


STUCK_AT = register_model(StuckAtModel())
TRANSITION = register_model(TransitionModel())
PATH_DELAY = register_model(PathDelayModel())
OBD = register_model(ObdModel())
