"""The campaign pipeline: fault-sharded, inline or across worker processes.

This is the one implementation of the campaign flow.
:meth:`Campaign.run <repro.campaign.runner.Campaign.run>` runs it as a
single shard on :class:`InlineExecutor`; :class:`ShardedCampaign` runs any
shard count on a process pool, an external executor or inline, optionally
with checkpoints.  Retries, engine degradation and the ``degraded``
provenance therefore behave the same for every run.

The pipeline is embarrassingly parallel across the fault universe:
every fault's pattern-phase detection list, ATPG attempt and re-simulation
result depend only on that fault (and the shared test lists), never on other
faults.  :class:`ShardedCampaign` exploits this by partitioning the
(collapsed) universe into contiguous shards and running two worker rounds in
a :class:`~concurrent.futures.ProcessPoolExecutor`:

1. **pattern + generate** -- each shard fault-simulates the shared pattern
   tests over its fault slice and runs deterministic ATPG for its still
   undetected faults;
2. **re-simulate** -- the per-shard ATPG tests are concatenated in shard
   order (identical to the one-shard test list, because shards are
   contiguous in universe order) and every shard re-simulates the full
   merged ATPG test list over its fault slice.

Per-shard :class:`~repro.atpg.fault_sim.DetectionReport`\\ s are merged back
in universe order (:func:`repro.atpg.compaction.merge_fault_shards`)
**before** greedy compaction runs, so the final
:class:`~repro.campaign.runner.CampaignResult` -- coverage, detection
indices, test lists, compacted subset, JSON report -- is bit-identical for
every fault model, engine, ``drop_detected`` setting and shard count
(ragged or empty final shards included).  The property suite in
``tests/test_properties.py`` asserts exactly this.

Each process that runs shard tasks compiles the circuit once per campaign
(keyed by a run token) and reuses the same
:class:`~repro.logic.compiled.CompiledCircuit` for both rounds, so sharding
adds one compile per worker, not per task; the calling process drops its
entries when the run ends.  Workers receive plain picklable payloads (the
netlist, fault dataclasses, test tuples); compiled circuits never cross
process boundaries.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..analysis_static.implication import StaticLearning
from ..atpg.compaction import merge_fault_shards
from ..atpg.coverage import coverage_from_report
from ..atpg.fault_sim import DetectionReport
from ..atpg.parallel_sim import packed_simulate_shard
from ..atpg.podem import PodemOptions
from ..atpg.structural import circuit_context
from ..faults.base import Fault, FaultList
from ..logic.netlist import LogicCircuit

# faultinject has no repro dependencies and service/__init__ imports it
# before service.jobs, so this cross-package hook cannot cycle; the hooks
# are no-ops unless an injection plan is installed.
from ..service.faultinject import inject
from .errors import CampaignError, ShardExecutionError
from .model import AtpgOutcome, FaultModel, get_model
from .runner import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    PatternPhaseResult,
    StaticPhaseResult,
    assemble_result,
    build_atpg_phase,
    collapse_universe,
    compile_for_engine,
    generate_atpg_outcomes,
    resolve_campaign_circuit,
    run_lint_gate,
    run_static_phase,
)


class InlineExecutor(Executor):
    """Run submitted calls immediately in the calling process.

    Drop-in for :class:`~concurrent.futures.ProcessPoolExecutor` when
    process startup is not worth it (tiny circuits, tests, single-CPU
    boxes): the shard/merge pipeline is exercised unchanged, without
    pickling or forking.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # pragma: no cover - surfaced via .result()
            future.set_exception(exc)
        return future


def partition_faults(faults: Sequence[Fault] | FaultList, shards: int) -> list[list[Fault]]:
    """Contiguous fault shards in universe order; the final shard is ragged.

    Chunks are ``ceil(n / shards)`` long, so with more shards than faults
    the trailing shards come out empty -- callers skip those.  Contiguity in
    universe order is what makes per-shard ATPG test lists concatenate into
    exactly the one-shard test list.
    """
    if shards < 1:
        raise CampaignError(f"shards must be >= 1, got {shards}")
    fault_list = list(faults)
    size = -(-len(fault_list) // shards) if fault_list else 1
    return [fault_list[i * size : (i + 1) * size] for i in range(shards)]


# --------------------------------------------------------------------------- #
# Worker-side code.  Everything below runs inside pool processes; the
# per-process compiled-circuit cache means each worker pays for codegen once
# per campaign regardless of how many shard tasks it executes.
# --------------------------------------------------------------------------- #
_TOKENS = itertools.count()

#: Per-worker-process cache: (run token, engine, word bits) -> compiled
#: circuit (or None for the serial engine).  Keyed by engine as well as
#: token because retry degradation can re-run a shard of the same campaign
#: under a fallback engine -- the packed artifact must not be reused then.
#: Bounded so long-lived shared pools (CampaignSuite) do not accumulate one
#: compiled circuit per finished campaign; a run whose tasks ran in the
#: calling process drops its own entries when it ends.
_WORKER_COMPILED: dict[tuple[str, str, Optional[int]], object] = {}
_WORKER_CACHE_LIMIT = 8


def _new_token() -> str:
    """A campaign-run id that is unique across the parent process lifetime."""
    return f"{os.getpid()}:{next(_TOKENS)}"


def _worker_compiled(token: str, circuit: LogicCircuit, engine: str, word_bits: Optional[int]):
    key = (token, engine, word_bits)
    compiled = _WORKER_COMPILED.get(key, _WORKER_COMPILED)
    if compiled is _WORKER_COMPILED:  # sentinel: not cached yet (None is valid)
        compiled = compile_for_engine(circuit, engine, word_bits)
        while len(_WORKER_COMPILED) >= _WORKER_CACHE_LIMIT:
            _WORKER_COMPILED.pop(next(iter(_WORKER_COMPILED)))
        _WORKER_COMPILED[key] = compiled
    return compiled


def _simulate_shard(
    model: FaultModel,
    circuit: LogicCircuit,
    tests: Sequence,
    fault_shard: Sequence[Fault],
    engine: str,
    compiled,
    drop_detected: bool,
) -> DetectionReport:
    """One shard's simulation through the engine the spec asked for."""
    if engine == "serial":
        return model.simulate(
            circuit, tests, fault_shard, drop_detected=drop_detected, engine="serial"
        )
    return packed_simulate_shard(
        model.name, circuit, tests, fault_shard,
        compiled=compiled, drop_detected=drop_detected,
    )


def _shard_pattern_and_generate(
    token: str,
    circuit: LogicCircuit,
    model_name: str,
    engine: str,
    word_bits: Optional[int],
    tests: Optional[Sequence],
    fault_shard: Sequence[Fault],
    drop_detected: bool,
    run_atpg: bool,
    podem_options: Optional[PodemOptions],
    proven: frozenset[str] = frozenset(),
    atpg_engine: str | None = None,
    shard_index: int = -1,
    learning: Optional[StaticLearning] = None,
) -> tuple[Optional[DetectionReport], list[AtpgOutcome], list[str], list[str], float, float]:
    """Round 1: pattern-phase simulation plus ATPG generation for one shard.

    *tests* is None when the spec has no pattern phase; *proven* carries the
    parent's static untestability proofs and *learning* its static learning
    (both computed once, never per shard).  The learning seeds this
    process's structural ATPG context for *circuit*, so the worker does not
    learn again; None leaves the context to learn on first use.  Returns the
    shard's pattern report, its ATPG outcomes, skipped keys and proven keys
    (all in universe order), and the shard's (simulation seconds, generation
    seconds).
    """
    inject("worker.round1", shard=shard_index)
    model = get_model(model_name)
    compiled = _worker_compiled(token, circuit, engine, word_bits)
    report: Optional[DetectionReport] = None
    detected: set[str] = set()
    sim_seconds = 0.0
    if tests is not None:
        t0 = time.perf_counter()
        report = _simulate_shard(
            model, circuit, tests, fault_shard, engine, compiled, drop_detected
        )
        sim_seconds = time.perf_counter() - t0
        detected.update(report.detected_faults)
    outcomes: list[AtpgOutcome] = []
    skipped: list[str] = []
    proven_skipped: list[str] = []
    gen_seconds = 0.0
    if run_atpg:
        t0 = time.perf_counter()
        if learning is not None:
            circuit_context(circuit, learning)
        outcomes, skipped, proven_skipped = generate_atpg_outcomes(
            model, circuit, fault_shard, detected, podem_options, proven=proven,
            atpg_engine=atpg_engine,
        )
        gen_seconds = time.perf_counter() - t0
    return report, outcomes, skipped, proven_skipped, sim_seconds, gen_seconds


def _shard_resimulate(
    token: str,
    circuit: LogicCircuit,
    model_name: str,
    engine: str,
    word_bits: Optional[int],
    tests: Sequence,
    fault_shard: Sequence[Fault],
    drop_detected: bool,
    shard_index: int = -1,
) -> tuple[DetectionReport, float]:
    """Round 2: re-simulate the merged ATPG test list over one fault shard."""
    inject("worker.round2", shard=shard_index)
    model = get_model(model_name)
    compiled = _worker_compiled(token, circuit, engine, word_bits)
    t0 = time.perf_counter()
    report = _simulate_shard(
        model, circuit, tests, fault_shard, engine, compiled, drop_detected
    )
    return report, time.perf_counter() - t0


# --------------------------------------------------------------------------- #
# Parent-side executor.
# --------------------------------------------------------------------------- #
#: Engine-degradation ladder: after a shard's retry budget is spent the
#: executor may fall back one rung and try again.  Every engine is
#: property-tested bit-identical to the others, so degradation can change
#: only runtime, never the result.  The numpy backend falls back to the
#: big-int backend of the same generated code, which needs no optional
#: dependency at all.
DEGRADE_FALLBACK = {"numpy": "packed", "packed": "interp", "interp": "serial"}


@dataclass
class RetryPolicy:
    """How one shard round treats failing or overdue tasks.

    ``max_retries`` extra attempts per shard (on top of the first), each
    preceded by an exponential ``backoff * 2**attempt`` sleep;
    ``timeout`` is the per-shard deadline in seconds (None = wait forever);
    ``degrade_to`` names the fallback engine granted a fresh attempt budget
    once the primary engine's budget is spent (None = fail instead).
    *sleep* is injectable so tests can assert the backoff schedule without
    real waiting.
    """

    max_retries: int = 0
    timeout: Optional[float] = None
    backoff: float = 0.05
    degrade_to: Optional[str] = None
    sleep: Callable[[float], None] = time.sleep

    @classmethod
    def for_spec(cls, spec: CampaignSpec) -> "RetryPolicy":
        return cls(
            max_retries=spec.max_retries,
            timeout=spec.shard_timeout,
            backoff=spec.retry_backoff,
            degrade_to=DEGRADE_FALLBACK.get(spec.engine) if spec.allow_degraded else None,
        )


@dataclass
class RoundStats:
    """Fault-tolerance counters accumulated across a campaign's rounds."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    rebuilds: int = 0
    #: Shard index -> fallback engine, for shards that completed degraded.
    degraded: dict[int, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "degraded_shards": len(self.degraded),
        }


def _collect_round(
    tasks: Sequence[tuple[int, Callable[..., Future]]],
    load: Optional[Callable[[int], Optional[tuple]]],
    save: Optional[Callable[[int, tuple], None]],
    *,
    policy: Optional[RetryPolicy] = None,
    stats: Optional[RoundStats] = None,
    rebuild: Optional[Callable[[], None]] = None,
) -> list[tuple]:
    """Run one shard round, mixing checkpointed and freshly computed shards.

    *tasks* pairs each shard index with a thunk that submits its worker
    task (the thunk takes an optional fallback-engine override); *load*
    returns a checkpointed record (or None) and *save* persists one -- both
    None when checkpointing is off.  Results are persisted **as they
    complete** (not at round end), so a crash mid-round loses only the
    still-running shards; if collecting a result raises, the
    already-finished shards are persisted before the exception propagates.
    The returned list is ordered by shard index, exactly as if every shard
    had been computed in submit order.

    Failure handling, governed by *policy* and tallied into *stats*:

    * A worker-side :class:`Exception` (or a shard exceeding the deadline)
      is retried with exponential backoff up to ``policy.max_retries``
      times, then retried once more on ``policy.degrade_to`` (fresh attempt
      budget), and finally raised as :class:`ShardExecutionError` with its
      taxonomy category.  Determinism makes every disposition safe: a retry
      or a degraded re-run of the same shard produces the identical record.
    * :class:`CampaignError` and ``BaseException``\\ s
      (``KeyboardInterrupt`` & co) are never retried -- deterministic
      failures cannot be fixed by running again.
    * :class:`~concurrent.futures.BrokenExecutor` (worker-side or at
      submission) invokes *rebuild* -- once per breakage wave -- before the
      affected shards are retried on the replacement pool.
    * A submit-time exception of any other type is a parent-side crash and
      propagates raw (the checkpoint store has already persisted every
      finished shard, so the campaign resumes).
    """
    policy = policy or RetryPolicy()
    stats = stats if stats is not None else RoundStats()
    results: dict[int, tuple] = {}
    written: set[int] = set()
    submits: dict[int, Callable[..., Future]] = {}
    stage_attempts: dict[int, int] = {}
    total_attempts: dict[int, int] = {}
    engines: dict[int, str] = {}
    pending: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}

    def _save(index: int, record: tuple) -> None:
        if save is not None and index not in written:
            save(index, record)
            written.add(index)

    def _attempt(index: int) -> None:
        try:
            future = submits[index](engines.get(index))
        except (BrokenExecutor, OSError) as exc:
            if isinstance(exc, BrokenExecutor):
                stats.rebuilds += 1
                if rebuild is not None:
                    rebuild()
            _fail(index, exc, "crash")
            return
        pending[future] = index
        if policy.timeout is not None:
            deadlines[future] = time.monotonic() + policy.timeout

    def _fail(index: int, exc: BaseException, category: str) -> None:
        if category == "timeout":
            stats.timeouts += 1
        else:
            stats.crashes += 1
        total_attempts[index] = total_attempts.get(index, 0) + 1
        stage_attempts[index] = stage_attempts.get(index, 0) + 1
        if stage_attempts[index] <= policy.max_retries:
            stats.retries += 1
            if policy.backoff > 0:
                policy.sleep(policy.backoff * (2 ** (stage_attempts[index] - 1)))
        elif policy.degrade_to is not None and index not in engines:
            engines[index] = policy.degrade_to
            stats.degraded[index] = policy.degrade_to
            stage_attempts[index] = 0
        else:
            final = "degraded" if index in engines else category
            raise ShardExecutionError(
                index, total_attempts[index], final, f"{type(exc).__name__}: {exc}"
            ) from exc
        _attempt(index)

    try:
        for index, submit in tasks:
            record = load(index) if load is not None else None
            if record is not None:
                results[index] = record
            else:
                submits[index] = submit
                _attempt(index)
        while pending:
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            rebuilt = False
            for future in done:
                index = pending.pop(future)
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    record = future.result()
                    _save(index, record)
                    results[index] = record
                elif isinstance(exc, BrokenExecutor):
                    # One breakage kills every in-flight future; rebuild the
                    # pool once per wave, then retry each shard on it.
                    if not rebuilt:
                        rebuilt = True
                        stats.rebuilds += 1
                        if rebuild is not None:
                            rebuild()
                    _fail(index, exc, "crash")
                elif isinstance(exc, CampaignError) or not isinstance(exc, Exception):
                    raise exc
                else:
                    _fail(index, exc, "crash")
            if not done:
                now = time.monotonic()
                for future in [f for f, d in deadlines.items() if d <= now]:
                    index = pending.pop(future)
                    del deadlines[future]
                    future.cancel()
                    _fail(
                        index,
                        TimeoutError(f"no result within shard_timeout={policy.timeout}s"),
                        "timeout",
                    )
    except BaseException:
        for future, index in pending.items():
            if future.done() and not future.cancelled() and future.exception() is None:
                _save(index, future.result())
        raise
    return [results[index] for index in sorted(results)]


class ShardedCampaign:
    """The campaign pipeline over any shard count, inline or on a pool.

    :meth:`Campaign.run <repro.campaign.runner.Campaign.run>` is this class
    with ``shards=1, max_workers=0`` and no checkpoint directory.

    ``shards`` defaults to the spec's ``shards`` field; ``max_workers``
    defaults to ``min(shards, cpu_count)``, and ``max_workers=0`` selects
    :class:`InlineExecutor` (no processes -- same pipeline, deterministic,
    handy for tests and one-CPU machines).  Pass *pool* to reuse an external
    executor across campaigns (e.g. the shared pool of a
    :class:`~repro.campaign.suite.CampaignSuite`); it is not shut down here.

    ``checkpoint_dir`` enables crash-safe shard checkpointing through a
    :class:`~repro.service.checkpoint.CheckpointStore`: every completed
    shard task is persisted (atomically) as its result arrives, and a rerun
    pointed at the same directory loads the completed shards instead of
    recomputing them -- the deterministic universe-order merge makes the
    resumed result bit-identical to an uninterrupted run.  With ``resume``
    (the default) existing checkpoints are reused after validating the
    campaign fingerprint; ``resume=False`` clears them first.  After
    :meth:`run`, :attr:`checkpoint_summary` reports how many shard records
    each round loaded from disk vs computed.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        pool: Optional[Executor] = None,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = True,
    ):
        spec.validate()
        self.spec = spec
        self.model: FaultModel = get_model(spec.model)
        self.shards = spec.shards if shards is None else shards
        if self.shards < 1:
            raise CampaignError(f"shards must be >= 1, got {self.shards}")
        self.max_workers = max_workers
        self.pool = pool
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        #: Filled by :meth:`run` when checkpointing is on (see
        #: :meth:`repro.service.checkpoint.CheckpointStore.summary`).
        self.checkpoint_summary: Optional[dict] = None
        #: Filled by :meth:`run`: the fault-tolerance counters of the run
        #: (:meth:`RoundStats.as_dict` -- retries, crashes, timeouts, pool
        #: rebuilds, degraded shards).  All zero on a clean run.
        self.fault_tolerance: Optional[dict] = None

    def _executor(self, num_shards: int) -> tuple[Executor, bool, Optional[int]]:
        """The executor, whether this run owns (must shut down/rebuild) it,
        and the owned pool's worker count (None for external/inline)."""
        if self.pool is not None:
            return self.pool, False, None
        workers = self.max_workers
        if workers == 0:
            return InlineExecutor(), False, None
        if workers is None:
            workers = max(1, min(num_shards, os.cpu_count() or 1))
        return ProcessPoolExecutor(max_workers=workers), True, workers

    def run(self, circuit: LogicCircuit | str | None = None) -> CampaignResult:
        """Execute the pipeline; the result is the same for every shard count."""
        spec, model = self.spec, self.model
        circuit = resolve_campaign_circuit(circuit, spec)
        start = time.perf_counter()

        # The lint gate runs before anything touches the netlist, so a
        # malformed circuit fails with rule-id diagnostics rather than a
        # compile or universe-builder traceback.  Universe building,
        # collapsing and the static phase stay in the parent: they are cheap
        # relative to simulation/ATPG, the contiguous partition of the
        # *collapsed* list fixes shard contents (and hence merge order) once
        # and for all, and running lint + proofs exactly once keeps the
        # proof set -- and the deterministic shard-order sum of per-shard
        # proven counts -- the same for every shard count.  The lint gate's
        # static learning is the run's only learning pass: the prover reuses
        # it here and round-1 tasks ship it to their structural ATPG context.
        lint = learning = None
        if spec.static_phase:
            lint, learning = run_lint_gate(circuit)
        universe = model.build_universe(circuit, **spec.universe_options)
        faults = collapse_universe(model, circuit, universe, spec.collapse)
        static_phase: Optional[StaticPhaseResult] = None
        proven: frozenset[str] = frozenset()
        if spec.static_phase:
            static_phase = run_static_phase(model, circuit, faults, lint, learning)
            proven = frozenset(static_phase.proofs)
        atpg_learning = learning if spec.run_atpg else None
        shard_lists = [s for s in partition_faults(faults, self.shards) if s]

        tests: Optional[list] = None
        if spec.pattern_source != "none":
            tests = list(Campaign(spec).patterns_for(circuit))

        store = None
        if self.checkpoint_dir is not None:
            # Imported lazily: the service layer sits on top of this package.
            from ..service.checkpoint import CheckpointStore
            from ..service.fingerprint import campaign_fingerprint

            store = CheckpointStore(self.checkpoint_dir)
            store.prepare(
                campaign_fingerprint(circuit, spec), self.shards, resume=self.resume
            )

        token = _new_token()
        executor, owns_pool, pool_workers = self._executor(max(1, len(shard_lists)))
        policy = RetryPolicy.for_spec(spec)
        stats = RoundStats()

        def rebuild() -> None:
            # Replace a broken owned pool; the submit thunks read `executor`
            # late-bound from this scope, so retries land on the new pool.
            # External/inline executors are left alone -- retries go back to
            # the same (possibly chaos-wrapped) executor.
            nonlocal executor
            if not owns_pool or pool_workers is None:
                return
            broken = executor
            executor = ProcessPoolExecutor(max_workers=pool_workers)
            broken.shutdown(wait=False, cancel_futures=True)

        try:
            num_pattern_tests = len(tests) if tests is not None else None
            results = _collect_round(
                [
                    (
                        index,
                        lambda engine=None, shard=shard, index=index: executor.submit(
                            _shard_pattern_and_generate,
                            token, circuit, model.name, engine or spec.engine,
                            spec.word_bits, tests, shard, spec.drop_detected,
                            spec.run_atpg, spec.podem_options, proven,
                            spec.atpg_engine, index, atpg_learning,
                        ),
                    )
                    for index, shard in enumerate(shard_lists)
                ],
                load=(
                    (
                        lambda index: store.load_round1(
                            index, shard_lists[index], model.pattern_kind,
                            num_pattern_tests,
                        )
                    )
                    if store
                    else None
                ),
                save=(
                    (lambda index, rec: store.store_round1(index, shard_lists[index], rec))
                    if store
                    else None
                ),
                policy=policy,
                stats=stats,
                rebuild=rebuild,
            )

            pattern_phase: Optional[PatternPhaseResult] = None
            detected: set[str] = set()
            if tests is not None:
                if results:
                    report = merge_fault_shards(
                        [r[0] for r in results], fault_order=faults.keys()
                    )
                else:  # empty fault universe: nothing was sharded
                    report = DetectionReport(detections={}, num_tests=len(tests))
                pattern_phase = PatternPhaseResult(
                    source=spec.pattern_source,
                    tests=tests,
                    report=report,
                    coverage=coverage_from_report(model.name, report),
                    # Aggregate worker time, comparable to the sequential
                    # phase cost (not the parallel wall time).
                    runtime=sum(r[4] for r in results),
                )
                detected.update(report.detected_faults)

            atpg_phase = None
            if spec.run_atpg:
                outcomes = [o for r in results for o in r[1]]
                skipped = [k for r in results for k in r[2]]
                # Shard-order concatenation == universe order (contiguous
                # shards), so the proven list and its count merge
                # deterministically no matter the worker schedule.
                proven_skipped = [k for r in results for k in r[3]]
                generation_runtime = sum(r[5] for r in results)
                atpg_tests = [test for outcome in outcomes for test in outcome.tests]
                if spec.drop_detected:
                    sim_faults = faults.filtered(lambda f: f.key not in detected)
                else:
                    sim_faults = faults
                resim_shards = [s for s in partition_faults(sim_faults, self.shards) if s]
                resim = _collect_round(
                    [
                        (
                            index,
                            lambda engine=None, shard=shard, index=index: executor.submit(
                                _shard_resimulate,
                                token, circuit, model.name, engine or spec.engine,
                                spec.word_bits, atpg_tests, shard,
                                spec.drop_detected, index,
                            ),
                        )
                        for index, shard in enumerate(resim_shards)
                    ],
                    load=(
                        (
                            lambda index: store.load_round2(
                                index, resim_shards[index], len(atpg_tests)
                            )
                        )
                        if store
                        else None
                    ),
                    save=(
                        (
                            lambda index, rec: store.store_round2(
                                index, resim_shards[index], rec
                            )
                        )
                        if store
                        else None
                    ),
                    policy=policy,
                    stats=stats,
                    rebuild=rebuild,
                )
                if resim:
                    report = merge_fault_shards(
                        [r[0] for r in resim], fault_order=sim_faults.keys()
                    )
                else:  # every fault already detected (or the universe is empty)
                    report = DetectionReport(detections={}, num_tests=len(atpg_tests))
                atpg_phase = build_atpg_phase(
                    model.name,
                    len(faults),
                    outcomes,
                    skipped,
                    report,
                    runtime=generation_runtime + sum(r[1] for r in resim),
                    generation_runtime=generation_runtime,
                    proven=proven_skipped,
                )
        finally:
            if store is not None:
                self.checkpoint_summary = store.summary()
            self.fault_tolerance = stats.as_dict()
            if owns_pool:
                executor.shutdown()
            # Inline tasks cached this run's compiled circuits in this
            # process; pool workers keep their own bounded cache.
            for key in list(_WORKER_COMPILED):
                if key[0] == token:
                    _WORKER_COMPILED.pop(key, None)

        result = assemble_result(
            spec,
            model,
            circuit,
            universe,
            faults,
            pattern_phase,
            atpg_phase,
            runtime=time.perf_counter() - start,
            static_phase=static_phase,
        )
        if stats.degraded:
            # Operational provenance only: the fallback engines are
            # bit-identical, so the result payload itself is unchanged.
            result.degraded = {
                "engine": spec.engine,
                "fallbacks": {str(i): eng for i, eng in sorted(stats.degraded.items())},
            }
        return result


def run_sharded_campaign(
    circuit: LogicCircuit | str | None = None,
    spec: Optional[CampaignSpec] = None,
    *,
    shards: Optional[int] = None,
    max_workers: Optional[int] = None,
    pool: Optional[Executor] = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = True,
    **spec_kwargs,
) -> CampaignResult:
    """One-call convenience mirroring :func:`~repro.campaign.run_campaign`.

    Builds a spec (or takes one), partitions the fault universe into
    *shards* (default: the spec's ``shards`` field) and runs the campaign
    across worker processes; the result is bit-identical to
    :func:`~repro.campaign.run_campaign`, which runs one inline shard.
    *checkpoint_dir* persists every completed shard so a killed run resumes
    where it left off (see :class:`ShardedCampaign`).
    """
    if spec is not None and spec_kwargs:
        raise CampaignError("pass either a CampaignSpec or keyword fields, not both")
    executor = ShardedCampaign(
        spec or CampaignSpec(**spec_kwargs),
        shards=shards,
        max_workers=max_workers,
        pool=pool,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    return executor.run(circuit)
