"""Campaign batteries: many specs, one worker pool, one consolidated report.

:class:`CampaignSuite` executes a list of :class:`~repro.campaign.runner.
CampaignSpec`\\ s (each naming its circuit) concurrently in a shared
:class:`~concurrent.futures.ProcessPoolExecutor` -- one campaign per worker
task, so a battery of small campaigns saturates the pool while every
individual result stays bit-identical to a standalone
:meth:`Campaign.run <repro.campaign.runner.Campaign.run>`.  Each entry runs
the shard pipeline inline inside the worker with its spec's ``shards``
count (nested process pools are never created).

:meth:`CampaignSuite.cross` builds the usual benchmark battery as the cross
product of circuits x models x engines, and :class:`SuiteResult` emits the
consolidated JSON / CSV report the scale benchmarks and CI artifacts
consume.

With ``cache_dir`` every entry consults the content-addressed
:class:`~repro.service.cache.ResultCache` before doing any engine work and
stores its result afterwards, so re-running a battery (or sharing the
directory across batteries and the campaign service) answers repeated
entries from disk; :attr:`SuiteEntry.cache_hit` and the consolidated
report record which entries were free.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from ..ioutil import atomic_write_text
from .errors import CampaignError
from .runner import CampaignResult, CampaignSpec
from .sharded import InlineExecutor, ShardedCampaign


def _run_suite_entry(
    index: int, spec: CampaignSpec, cache_dir: Optional[str] = None
) -> tuple[int, Optional[CampaignResult], Optional[str], float, bool, Optional[str]]:
    """Worker task: run one campaign, trapping per-entry failures.

    A failing entry (unknown circuit, degenerate builder size, ...) is
    reported in the consolidated result -- message plus full traceback for
    post-mortem debugging -- instead of poisoning the battery.  With
    *cache_dir* the result cache is consulted first and fed afterwards;
    the returned flag records whether the entry was a cache hit.
    """
    start = time.perf_counter()
    try:
        cache = key = None
        if cache_dir is not None:
            # Imported lazily: the service layer sits on top of this package.
            from ..service.cache import ResultCache

            cache = ResultCache(cache_dir)
            key, cached = cache.fetch(None, spec)
            if cached is not None:
                return index, cached, None, time.perf_counter() - start, True, None
        result = ShardedCampaign(spec, max_workers=0).run()
        if cache is not None:
            cache.put(key, result)
        return index, result, None, time.perf_counter() - start, False, None
    except Exception as exc:
        return (
            index,
            None,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
            False,
            traceback_module.format_exc(),
        )


@dataclass
class SuiteEntry:
    """Outcome of one battery member: a result or an error, never both.

    Failed entries keep the full worker-side ``traceback`` text alongside
    the one-line ``error`` summary; ``cache_hit`` marks entries answered
    from the result cache without any simulation or ATPG work.
    """

    index: int
    spec: CampaignSpec
    result: Optional[CampaignResult]
    error: Optional[str]
    runtime: float
    cache_hit: bool = False
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def row(self) -> dict[str, Any]:
        """Flat summary row for the consolidated report."""
        row: dict[str, Any] = {
            "index": self.index,
            "circuit": self.spec.circuit,
            "model": self.spec.model,
            "engine": self.spec.engine,
            "shards": self.spec.shards,
            "pattern_source": self.spec.pattern_source,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "runtime_s": self.runtime,
        }
        if self.result is None:
            row["error"] = self.error
            row["traceback"] = self.traceback
            return row
        result = self.result
        coverage = result.coverage
        num_tests = result.merged_report.num_tests
        row.update(
            {
                "faults": len(result.faults),
                "detected": coverage.detected,
                "untestable": coverage.untestable,
                "proven_static": coverage.proven_static,
                "coverage": coverage.coverage,
                "num_tests": num_tests,
                "compacted_tests": result.compaction.size if result.compaction else None,
                "fault_tests_per_second": (
                    len(result.faults) * num_tests / self.runtime if self.runtime > 0 else None
                ),
                "error": None,
            }
        )
        return row


#: Column order of the consolidated CSV (superset of every row's keys; the
#: multi-line traceback stays JSON-only).
SUITE_CSV_COLUMNS = (
    "index", "circuit", "model", "engine", "shards", "pattern_source", "ok",
    "cache_hit", "faults", "detected", "untestable", "proven_static",
    "coverage", "num_tests", "compacted_tests", "runtime_s",
    "fault_tests_per_second", "error",
)


@dataclass
class SuiteResult:
    """Everything one battery run produced, plus the consolidated reports."""

    entries: list[SuiteEntry]
    runtime: float

    @property
    def ok(self) -> list[SuiteEntry]:
        return [e for e in self.entries if e.ok]

    @property
    def failed(self) -> list[SuiteEntry]:
        return [e for e in self.entries if not e.ok]

    def results(self) -> list[CampaignResult]:
        return [e.result for e in self.entries if e.result is not None]

    def rows(self) -> list[dict[str, Any]]:
        return [entry.row() for entry in self.entries]

    @property
    def cache_hits(self) -> list[SuiteEntry]:
        return [e for e in self.entries if e.cache_hit]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro/campaign-suite/2",
            "campaigns": len(self.entries),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cache_hits": len(self.cache_hits),
            "runtime_s": self.runtime,
            "rows": self.rows(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_csv(self) -> str:
        """The consolidated report as CSV text (one row per campaign)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=SUITE_CSV_COLUMNS, restval="")
        writer.writeheader()
        for row in self.rows():
            writer.writerow({k: row.get(k, "") for k in SUITE_CSV_COLUMNS})
        return buffer.getvalue()

    def write_report(self, directory: str | os.PathLike, stem: str = "suite_report") -> tuple[Path, Path]:
        """Write ``<stem>.json`` and ``<stem>.csv`` under *directory*.

        Both files are written atomically (temp file + ``os.replace``), so
        a battery killed mid-write never leaves a truncated report behind.
        """
        out = Path(directory)
        json_path = atomic_write_text(out / f"{stem}.json", self.to_json() + "\n")
        csv_path = atomic_write_text(out / f"{stem}.csv", self.to_csv())
        return json_path, csv_path

    def describe(self) -> str:
        lines = [
            f"suite: {len(self.ok)}/{len(self.entries)} campaigns ok "
            f"in {self.runtime:.2f} s"
        ]
        for entry in self.entries:
            row = entry.row()
            if entry.ok:
                lines.append(
                    f"  [{row['index']:3d}] {row['circuit']} x {row['model']} "
                    f"({row['engine']}, shards={row['shards']}): "
                    f"{row['detected']}/{row['faults']} detected "
                    f"({100.0 * row['coverage']:.1f}%), {row['num_tests']} tests"
                    + (
                        f" -> {row['compacted_tests']} compacted"
                        if row["compacted_tests"] is not None
                        else ""
                    )
                    + f", {row['runtime_s'] * 1e3:.0f} ms"
                    + (" [cached]" if entry.cache_hit else "")
                )
            else:
                lines.append(
                    f"  [{row['index']:3d}] {row['circuit']} x {row['model']}: "
                    f"FAILED ({row['error']})"
                )
        return "\n".join(lines)


class CampaignSuite:
    """A battery of campaigns over one shared worker pool.

    Every spec must name its circuit (``CampaignSpec.circuit``) since
    workers cannot receive live :class:`~repro.logic.netlist.LogicCircuit`
    arguments positionally through the battery API.  ``max_workers=0``
    runs the battery inline (no processes); *pool* reuses an external
    executor and leaves its lifetime to the caller.  ``cache_dir`` points
    every worker at a shared content-addressed result cache (see
    :mod:`repro.service.cache`): entries already cached are returned
    without any simulation work and fresh results are stored for the next
    battery.
    """

    def __init__(
        self,
        specs: Iterable[CampaignSpec],
        *,
        max_workers: Optional[int] = None,
        pool: Optional[Executor] = None,
        cache_dir: str | os.PathLike | None = None,
    ):
        self.specs = list(specs)
        if not self.specs:
            raise CampaignError("empty campaign suite: pass at least one CampaignSpec")
        for index, spec in enumerate(self.specs):
            spec.validate()
            if spec.circuit is None:
                raise CampaignError(
                    f"suite entry {index} ({spec.model}) has no circuit: "
                    f"set CampaignSpec.circuit to a registered name, "
                    f"family:args reference or .bench path"
                )
        self.max_workers = max_workers
        self.pool = pool
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None

    @classmethod
    def cross(
        cls,
        circuits: Sequence[str],
        models: Sequence[str] = ("stuck-at", "transition", "path-delay", "obd"),
        engines: Sequence[str] = ("packed",),
        *,
        base: Optional[CampaignSpec] = None,
        max_workers: Optional[int] = None,
        pool: Optional[Executor] = None,
        cache_dir: str | os.PathLike | None = None,
        **spec_kwargs: Any,
    ) -> "CampaignSuite":
        """The cross-product battery: circuits x models x engines.

        *base* (or ``**spec_kwargs``) supplies the shared pipeline settings
        -- pattern source and count, seed, collapsing, dropping, shards --
        and every combination gets its own spec via ``dataclasses.replace``.
        """
        if base is not None and spec_kwargs:
            raise CampaignError("pass either a base CampaignSpec or keyword fields, not both")
        if base is not None:
            template = base
        else:
            # Seed the template with the first battery model so cross-field
            # validation (e.g. sic needs a two-pattern model) judges a spec
            # that will actually run, not the placeholder default.
            if models:
                spec_kwargs.setdefault("model", models[0])
            template = CampaignSpec(**spec_kwargs)
        specs = [
            replace(template, circuit=circuit, model=model, engine=engine)
            for circuit in circuits
            for model in models
            for engine in engines
        ]
        return cls(specs, max_workers=max_workers, pool=pool, cache_dir=cache_dir)

    def run(self) -> SuiteResult:
        """Execute the battery; entry order in the result matches the specs."""
        start = time.perf_counter()
        own_pool = False
        executor = self.pool
        if executor is None:
            if self.max_workers == 0:
                executor = InlineExecutor()
            else:
                workers = self.max_workers or max(
                    1, min(len(self.specs), os.cpu_count() or 1)
                )
                executor = ProcessPoolExecutor(max_workers=workers)
                own_pool = True
        try:
            futures = [
                executor.submit(_run_suite_entry, index, spec, self.cache_dir)
                for index, spec in enumerate(self.specs)
            ]
            outcomes = [f.result() for f in futures]
        finally:
            if own_pool:
                executor.shutdown()
        entries = [
            SuiteEntry(
                index=i, spec=self.specs[i], result=result, error=error,
                runtime=rt, cache_hit=hit, traceback=tb,
            )
            for i, result, error, rt, hit, tb in sorted(outcomes)
        ]
        return SuiteResult(entries=entries, runtime=time.perf_counter() - start)


def run_campaign_suite(
    circuits: Sequence[str],
    models: Sequence[str] = ("stuck-at", "transition", "path-delay", "obd"),
    engines: Sequence[str] = ("packed",),
    *,
    max_workers: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    **spec_kwargs: Any,
) -> SuiteResult:
    """One-call cross-product battery (see :meth:`CampaignSuite.cross`)."""
    return CampaignSuite.cross(
        circuits, models, engines, max_workers=max_workers, cache_dir=cache_dir,
        **spec_kwargs,
    ).run()
