"""Out-of-program tracing: spans and counters around each layer's public entry points.

:class:`Tracer` wraps the entry points listed in :meth:`Tracer._targets` (module
attributes at every import site that calls them, and model/service class
methods) for the duration of :meth:`Tracer.installed`, and restores them on
exit.  Spans (name, metric, layer, start, end, parent) and counters live in
memory.  Forked shard workers inherit the wrapped functions; each worker task
writes its own spans and counters to one file in ``trace_dir`` when it ends,
and :meth:`Tracer.collect` merges those files after the traced execution.

Every span charges its *self* time (its duration minus that of its child
spans) to one metric, so in the parent process the ``.s`` metrics plus
``unattributed.s`` add up to the traced wall time.  Worker spans run in
parallel with the parent's ``shard.wait_s`` and are added on top.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

#: Per-layer metrics of a traced run, in report order: (name, unit).
PER_LAYER = (
    ("resolve.s", "s"),
    ("lint.s", "s"),
    ("learn.calls", "count"),
    ("learn.parent_calls", "count"),
    ("learn.s", "s"),
    ("learn.implications", "count"),
    ("prove.s", "s"),
    ("prove.proven", "count"),
    ("universe.s", "s"),
    ("universe.faults", "count"),
    ("collapse.s", "s"),
    ("compile.s", "s"),
    ("faultsim.codegen_s", "s"),
    ("patterns.s", "s"),
    ("faultsim.pattern_s", "s"),
    ("faultsim.resim_s", "s"),
    ("faultsim.fault_tests", "count"),
    ("atpg.s", "s"),
    ("atpg.attempted", "count"),
    ("atpg.tested", "count"),
    ("atpg.proven", "count"),
    ("atpg.aborted", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.decisions", "count"),
    ("atpg.implications", "count"),
    ("atpg.first_ms", "ms"),
    ("atpg.fault_p50_ms", "ms"),
    ("atpg.fault_p95_ms", "ms"),
    ("merge.s", "s"),
    ("compact.s", "s"),
    ("compact.ratio", "ratio"),
    ("assemble.s", "s"),
    ("shard.wait_s", "s"),
    ("shard.dispatch_s", "s"),
    ("shard.worker_s", "s"),
    ("shard.tasks", "count"),
    ("shard.retries", "count"),
    ("shard.degraded", "count"),
    ("shard.pickled_bytes", "bytes"),
    ("ckpt.store_s", "s"),
    ("ckpt.records", "count"),
    ("ckpt.bytes", "bytes"),
    ("cache.put_s", "s"),
    ("cache.get_s", "s"),
    ("cache.bytes", "bytes"),
    ("fingerprint.s", "s"),
    ("unattributed.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Span metric of the worker task wrappers (reported as ``shard.worker_s``).
_TASK = "shard.task_s"
#: Counters that keep their largest value instead of a sum.
_MAXIMA = ("learn.implications",)
_MISSING = object()
UNATTRIBUTED = "(unattributed)"

_ATPG_LAYERS = {"obd": "atpg.obd_atpg", "path-delay": "atpg.path_delay_atpg"}


@dataclass(frozen=True)
class _Call:
    original: Callable
    args: tuple
    kwargs: dict


@dataclass(frozen=True)
class _Target:
    owner: object
    attr: str
    metric: Union[str, Callable[["Tracer"], str]]
    layer: Union[str, Callable[[tuple], str]]
    #: Runs inside the span, before the call: (tracer, call).
    before: Optional[Callable] = None
    #: Runs after the span closes: (tracer, call, result, span).
    after: Optional[Callable] = None
    #: Worker task entry point: resets the inherited state, flushes on exit.
    task: bool = False


class Tracer:
    def __init__(self, trace_dir: Path):
        self.pid = os.getpid()
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._flushes = 0
        self._probed_pid: Optional[int] = None
        #: The parent's first simulate call and its seconds, for :meth:`probe_codegen`.
        self.first_sim: Optional[tuple[_Call, float]] = None
        #: Task arguments of each pool submit, pickled by :meth:`collect`.
        self.submitted: list[tuple[tuple, dict]] = []
        self._reset()
        #: Spans of each worker task, merged in by :meth:`collect`.
        self.worker_spans: list[list[list]] = []

    def _reset(self) -> None:
        #: [name, metric, layer, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        #: Which simulate call comes next: the pattern phase or the ATPG re-simulation.
        self.phase = "pattern"

    def count(self, name: str, value: float = 1) -> None:
        if name in _MAXIMA:
            self.counters[name] = max(self.counters.get(name, 0), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #
    def _targets(self) -> list[_Target]:
        lint = importlib.import_module("repro.analysis_static.lint")
        untestable = importlib.import_module("repro.analysis_static.untestable")
        structural = importlib.import_module("repro.atpg.structural.engine")
        runner = importlib.import_module("repro.campaign.runner")
        sharded = importlib.import_module("repro.campaign.sharded")
        model_mod = importlib.import_module("repro.campaign.model")
        cache = importlib.import_module("repro.service.cache")
        checkpoint = importlib.import_module("repro.service.checkpoint")
        fingerprint = importlib.import_module("repro.service.fingerprint")

        targets = [
            # The root span's self time is pipeline glue no wrapped entry point covers.
            _Target(runner.Campaign, "run", "unattributed.s", UNATTRIBUTED,
                    before=_set_phase("pattern")),
            _Target(sharded.ShardedCampaign, "run", "shard.wait_s", "campaign.sharded",
                    before=_set_phase("pattern"), after=_after_sharded),
            _Target(runner.Campaign, "patterns_for", "patterns.s", "atpg.random_tpg"),
            _Target(ProcessPoolExecutor, "submit", "shard.dispatch_s", "campaign.sharded",
                    after=_after_submit),
            _Target(sharded, "_shard_pattern_and_generate", _TASK, "campaign.sharded",
                    before=_set_phase("pattern"), task=True),
            _Target(sharded, "_shard_resimulate", _TASK, "campaign.sharded",
                    before=_set_phase("resim"), task=True),
            _Target(sharded, "packed_simulate_shard", _sim_metric, "atpg.parallel_sim",
                    after=_after_simulate),
            _Target(checkpoint.CheckpointStore, "store_round1", "ckpt.store_s",
                    "service.checkpoint", after=_after_store(1)),
            _Target(checkpoint.CheckpointStore, "store_round2", "ckpt.store_s",
                    "service.checkpoint", after=_after_store(2)),
            _Target(cache.ResultCache, "get", "cache.get_s", "service.cache"),
            _Target(cache.ResultCache, "put", "cache.put_s", "service.cache",
                    after=_after_put),
            _Target(cache, "resolve_campaign_circuit", "resolve.s", "campaign.circuits"),
            _Target(cache, "campaign_fingerprint", "fingerprint.s", "service.fingerprint"),
            _Target(fingerprint, "campaign_fingerprint", "fingerprint.s",
                    "service.fingerprint"),
        ]
        for module in (lint, untestable, structural):
            targets.append(
                _Target(module, "learn_implications", "learn.s",
                        "analysis_static.implication", after=_after_learn)
            )
        for module in (runner, sharded):
            targets += [
                _Target(module, "resolve_campaign_circuit", "resolve.s", "campaign.circuits"),
                _Target(module, "run_lint_gate", "lint.s", "analysis_static.lint"),
                _Target(module, "collapse_universe", "collapse.s", "faults"),
                _Target(module, "compile_for_engine", "compile.s", "logic.compiled"),
                _Target(module, "assemble_result", "assemble.s", "campaign.runner"),
            ]
        targets += [
            _Target(runner, "concat_phase_reports", "merge.s", "atpg.compaction"),
            _Target(runner, "greedy_compaction", "compact.s", "atpg.compaction",
                    after=_after_compaction),
            _Target(sharded, "merge_fault_shards", "merge.s", "atpg.compaction"),
        ]
        for name in model_mod.registered_models():
            cls = type(model_mod.get_model(name))
            targets += [
                _Target(cls, "build_universe", "universe.s", "faults", after=_after_universe),
                _Target(cls, "prove_untestable", "prove.s", "analysis_static.untestable",
                        after=_after_prove),
                _Target(cls, "simulate", _sim_metric, "atpg.parallel_sim",
                        after=_after_simulate),
                _Target(cls, "generate_test", "atpg.s", _atpg_layer,
                        before=_set_phase("resim"), after=_after_generate),
            ]
        return targets

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for target in self._targets():
                owner, attr = target.owner, target.attr
                restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(target, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def _wrap(self, target: _Target, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if target.task and os.getpid() != tracer.pid:
                tracer._reset()  # drop the spans inherited from the parent
            metric = target.metric if isinstance(target.metric, str) else target.metric(tracer)
            layer = target.layer if isinstance(target.layer, str) else target.layer(args)
            call = _Call(original, args, kwargs)
            span = tracer._open(target.attr, metric, layer)
            try:
                if target.before is not None:
                    target.before(tracer, call)
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
                if target.task and os.getpid() != tracer.pid:
                    tracer._flush()
            if target.after is not None:
                target.after(tracer, call, result, tracer.spans[span])
            return result

        return wrapper

    def _open(self, name: str, metric: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, metric, layer, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self.stack.pop()

    def _flush(self) -> None:
        """Worker side: write this task's spans and counters, then forget them."""
        self._flushes += 1
        path = self.trace_dir / f"worker-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))
        self._reset()

    # ------------------------------------------------------------------ #
    # Collection and summary.
    # ------------------------------------------------------------------ #
    def collect(self) -> None:
        """Merge and delete the files the forked workers wrote.

        Also counts ``shard.pickled_bytes`` here, after the traced execution,
        so that the tracer's own pickling stays out of its wall time.
        """
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            self.worker_spans.append(payload["spans"])
            for name, value in payload["counters"].items():
                self.count(name, value)
            path.unlink()
        for args, kwargs in self.submitted:
            self.count("shard.pickled_bytes", len(pickle.dumps((args, kwargs))))
        self.submitted = []

    def probe_codegen(self) -> None:
        """Repeat the parent's first simulate call on the same compiled circuit.

        Runs after the traced execution, outside its wall time; the first
        call minus the repeat is the cone-kernel codegen it paid.
        """
        if self.first_sim is None:
            return
        call, first = self.first_sim
        t0 = time.perf_counter()
        call.original(*call.args, **call.kwargs)
        self.count("faultsim.codegen_s", first - (time.perf_counter() - t0))
        self.first_sim = None

    def summary(self, wall_s: float) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric except ``trace.overhead_s``."""
        values = {name: 0.0 for name, _ in PER_LAYER}
        parent = _self_times(self.spans)
        workers = [_self_times(spans) for spans in self.worker_spans]
        for span, own in parent + [pair for task in workers for pair in task]:
            if span[1] in values:
                values[span[1]] += own
        attributed = sum(own for span, own in parent if span[1] != "unattributed.s")
        values["unattributed.s"] = wall_s - attributed
        values["trace.wall_s"] = wall_s
        values["shard.worker_s"] = sum(
            span[4] - span[3] for task in self.worker_spans for span in task if span[1] == _TASK
        )
        for name, value in self.counters.items():
            values[name] = value
        atpg = sorted(
            (span for span in self.spans + [s for t in self.worker_spans for s in t]
             if span[1] == "atpg.s"),
            key=lambda span: span[3],
        )
        if atpg:
            per_fault = sorted((span[4] - span[3]) * 1e3 for span in atpg)
            values["atpg.first_ms"] = (atpg[0][4] - atpg[0][3]) * 1e3
            values["atpg.fault_p50_ms"] = _nearest_rank(per_fault, 0.50)
            values["atpg.fault_p95_ms"] = _nearest_rank(per_fault, 0.95)
        return values

    def layer_table(self, wall_s: float) -> list[tuple[str, float, float]]:
        """(layer, parent self seconds, worker self seconds), largest first.

        Time of the traced wall that no parent span covers goes to
        :data:`UNATTRIBUTED`, so the parent column sums to *wall_s*.
        """
        table: dict[str, list[float]] = {UNATTRIBUTED: [wall_s, 0.0]}
        for column, spans in [(0, self.spans)] + [(1, t) for t in self.worker_spans]:
            for span, own in _self_times(spans):
                if span[2] == UNATTRIBUTED:
                    continue  # already part of the residual
                table.setdefault(span[2], [0.0, 0.0])[column] += own
                if column == 0:
                    table[UNATTRIBUTED][0] -= own
        rows = [(layer, row[0], row[1]) for layer, row in table.items()]
        return sorted(rows, key=lambda row: -(row[1] + row[2]))


def _self_times(spans: list[list]) -> list[tuple[list, float]]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[5] >= 0:
            child[span[5]] += span[4] - span[3]
    return [(span, span[4] - span[3] - child[i]) for i, span in enumerate(spans)]


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------- #
# Hooks.
# ---------------------------------------------------------------------- #
def _set_phase(phase: str) -> Callable:
    def hook(tracer: Tracer, call: _Call) -> None:
        tracer.phase = phase

    return hook


def _sim_metric(tracer: Tracer) -> str:
    return "faultsim.pattern_s" if tracer.phase == "pattern" else "faultsim.resim_s"


def _atpg_layer(args: tuple) -> str:
    return _ATPG_LAYERS.get(args[0].name, "atpg.structural")


def _after_simulate(tracer: Tracer, call: _Call, result, span) -> None:
    # model.simulate(self, circuit, tests, faults) and
    # packed_simulate_shard(model, circuit, tests, faults) share positions.
    tests, faults = call.args[2], call.args[3]
    tracer.count("faultsim.fault_tests", len(faults) * len(tests))
    pid = os.getpid()
    if tracer._probed_pid == pid:
        return
    tracer._probed_pid = pid
    seconds = span[4] - span[3]
    if pid == tracer.pid:
        tracer.first_sim = (call, seconds)
        return
    # A worker has no "after the run": repeat its first call right here.
    t0 = time.perf_counter()
    call.original(*call.args, **call.kwargs)
    tracer.count("faultsim.codegen_s", seconds - (time.perf_counter() - t0))


def _after_learn(tracer: Tracer, call: _Call, result, span) -> None:
    tracer.count("learn.calls")
    if os.getpid() == tracer.pid:
        tracer.count("learn.parent_calls")
    tracer.count("learn.implications", result.num_implications)


def _after_prove(tracer: Tracer, call: _Call, result, span) -> None:
    tracer.count("prove.proven", len(result))


def _after_universe(tracer: Tracer, call: _Call, result, span) -> None:
    tracer.count("universe.faults", len(result))


def _after_generate(tracer: Tracer, call: _Call, outcome, span) -> None:
    tracer.count("atpg.attempted")
    tracer.count("atpg.tested", int(outcome.success))
    tracer.count("atpg.proven", int(outcome.untestable))
    tracer.count("atpg.aborted", int(not outcome.success and outcome.aborted))
    tracer.count("atpg.backtracks", outcome.backtracks)
    tracer.count("atpg.decisions", outcome.decisions)
    tracer.count("atpg.implications", outcome.implications)


def _after_compaction(tracer: Tracer, call: _Call, result, span) -> None:
    report = call.args[0]
    if report.num_tests:
        tracer.count("compact.ratio", result.size / report.num_tests)


def _after_submit(tracer: Tracer, call: _Call, future, span) -> None:
    tracer.count("shard.tasks")
    # args[0] is the executor and args[1] the task function, which pickles as
    # a short by-name reference; count the task's arguments.
    tracer.submitted.append((call.args[2:], call.kwargs))


def _after_sharded(tracer: Tracer, call: _Call, result, span) -> None:
    tolerance = call.args[0].fault_tolerance or {}
    tracer.count("shard.retries", tolerance.get("retries", 0))
    tracer.count("shard.degraded", tolerance.get("degraded_shards", 0))


def _after_store(round_no: int) -> Callable:
    def hook(tracer: Tracer, call: _Call, result, span) -> None:
        store, index = call.args[0], call.args[1]
        tracer.count("ckpt.records")
        path = store._shard_path(round_no, index)
        if path.exists():
            tracer.count("ckpt.bytes", path.stat().st_size)

    return hook


def _after_put(tracer: Tracer, call: _Call, path, span) -> None:
    if path.exists():
        tracer.count("cache.bytes", path.stat().st_size)
