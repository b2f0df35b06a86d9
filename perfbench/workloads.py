"""The benchmark's workloads: one campaign each, from a circuit reference to a result.

Every execution passes the circuit *reference string* to ``Campaign.run`` /
``ShardedCampaign.run``, so each one builds a fresh ``LogicCircuit``: a reused
netlist would let the per-circuit caches (``circuit_context`` and the compiled
cone kernels) hide the per-circuit work a real campaign pays.

The seed picks ``CampaignSpec.seed`` (the random pattern seed); results at
:data:`DEFAULT_SEED` are recorded in ``digests.json``.  The circuit is
fixed at ``rdag:N,4`` because the ``rdag`` seed changes the circuit itself: over
six seeds of a 50-gate circuit the OBD campaign time spans 0.44-2.41 s and its
coverage 22-69 %, a spread that would swamp any regression bound.

Requires ``src`` on ``sys.path`` (``run.py`` and ``sample.py`` put it there).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.campaign import Campaign, CampaignResult, CampaignSpec, ShardedCampaign
from repro.service import ResultCache

RDAG_SEED = 4
DEFAULT_SEED = 0
SHARDS = 4
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    gates: int
    patterns: int
    run_atpg: bool
    static_phase: bool
    #: Run through ShardedCampaign with a checkpoint dir, then a ResultCache
    #: fetch (miss), put and get.
    sharded: bool = False
    #: The unsharded workload whose result a sharded run must reproduce.
    reference: Optional[str] = None


# Why each workload exists is in README.md; in short:
WORKLOADS = {
    w.name: w
    for w in (
        # Static learning (three passes) dominates; fault simulation is minor.
        Workload("stuckat-atpg-rdag200", "stuck-at", 200, 256, True, True),
        # No static phase, no ATPG: codegen, propagation and compaction dominate.
        Workload("stuckat-sim4k-rdag400", "stuck-at", 400, 4096, False, False),
        # The paper's model: OBD ATPG through legacy-PODEM justify.
        Workload("obd-atpg-rdag60", "obd", 60, 256, True, True),
        # The first spec sharded, with checkpoints and a result-cache round trip.
        Workload(
            "stuckat-atpg-rdag200-2w", "stuck-at", 200, 256, True, True,
            sharded=True, reference="stuckat-atpg-rdag200",
        ),
    )
}


def circuit_ref(workload: Workload, gates: Optional[int] = None) -> str:
    return f"rdag:{gates or workload.gates},{RDAG_SEED}"


def spec_for(workload: Workload, seed: int) -> CampaignSpec:
    return CampaignSpec(
        model=workload.model,
        pattern_source="random",
        pattern_count=workload.patterns,
        seed=seed,
        run_atpg=workload.run_atpg,
        atpg_engine="podem",
        compact=True,
        static_phase=workload.static_phase,
        engine="packed",
    )


def digest(result: CampaignResult) -> str:
    """sha256 of the bit-identity payload ``as_dict(include_runtime=False)``."""
    payload = json.dumps(result.as_dict(include_runtime=False), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Execution:
    """What one timed execution produced; :meth:`check` runs untimed."""

    result: CampaignResult
    #: Sharded runs only: the cache's answer before the run and after the put.
    cached_before: Optional[CampaignResult] = None
    cached_after: Optional[CampaignResult] = None
    problems: list[str] = field(default_factory=list)

    def check(self) -> str:
        """Record every result-check failure in :attr:`problems`; return the digest."""
        value = digest(self.result)
        if self.result.degraded:
            self.problems.append(f"degraded provenance: {self.result.degraded}")
        if self.cached_before is not None:
            self.problems.append("result cache hit in a fresh cache directory")
        if self.cached_after is not None and digest(self.cached_after) != value:
            self.problems.append("result read back from the cache differs")
        return value


def execute(
    workload: Workload, seed: int, workdir: Path, gates: Optional[int] = None
) -> Execution:
    """Run *workload* once from its circuit reference (the timed operation)."""
    ref = circuit_ref(workload, gates)
    spec = spec_for(workload, seed)
    if not workload.sharded:
        return Execution(Campaign(spec).run(ref))
    workdir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    key, before = cache.fetch(ref, spec)
    runner = ShardedCampaign(
        spec,
        shards=SHARDS,
        max_workers=WORKERS,
        checkpoint_dir=tempfile.mkdtemp(prefix="ckpt-", dir=workdir),
    )
    result = runner.run(ref)
    cache.put(key, result)
    after = cache.get(key)
    execution = Execution(result, cached_before=before, cached_after=after)
    if after is None:
        execution.problems.append("result cache missed right after put")
    return execution
