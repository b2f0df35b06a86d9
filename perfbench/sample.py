"""One fresh interpreter: set-up, a cold execution, then warm executions.

    python3 perfbench/sample.py --workload NAME --seed N --launch T --workdir DIR
                                [--seconds S] [--reference]

*T* is the launching process's ``time.perf_counter()`` just before it started
this one (CLOCK_MONOTONIC, shared by every process on the host).  The process
measures

* ``setup_s``: launch until repro and numpy are imported and the circuit
  reference is resolved;
* ``cold_s``: launch until the first ``CampaignResult``;
* ``peak_rss_mb``: peak RSS at that point, of this process or, for a sharded
  run, of its largest (reaped) worker;
* ``warm_s``: each further execution in this now-warm process, for about *S*
  seconds (at least one).

``--reference`` also runs, untimed, the workload at the default seed (whose
digest is recorded in ``digests.json``) and the workload's unsharded reference.
Every execution's seed, digest and failed checks are reported for the caller
to compare.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  -- part of set-up by definition

    import workloads
    from repro.campaign.circuits import resolve_circuit

    workload = workloads.WORKLOADS[args.workload]
    resolve_circuit(workloads.circuit_ref(workload))
    sample = {"setup_s": time.perf_counter() - args.launch}
    executions = []

    def check(label: str, execution, seed: int = args.seed) -> None:
        digest = execution.check()
        executions.append(
            {"label": label, "seed": seed, "digest": digest, "problems": execution.problems}
        )

    execution = workloads.execute(workload, args.seed, args.workdir)
    sample["cold_s"] = time.perf_counter() - args.launch
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped workers.
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    sample["peak_rss_mb"] = peak / 1024
    check("cold", execution)
    result = execution.result
    sample["result"] = {
        "faults": len(result.faults),
        "fault_coverage": result.coverage.coverage,
        "test_efficiency": result.coverage.test_efficiency,
        "compacted_tests": result.compaction.size,
        "aborted_faults": result.coverage.aborted,
    }
    if args.reference and args.seed != workloads.DEFAULT_SEED:
        seed = workloads.DEFAULT_SEED
        check("default seed", workloads.execute(workload, seed, args.workdir), seed)
    if args.reference and workload.reference:
        reference = workloads.WORKLOADS[workload.reference]
        check("unsharded reference", workloads.execute(reference, args.seed, args.workdir))

    warm = []
    start = time.perf_counter()
    # Stop at the execution that ends closest to the budget (at least one).
    while not warm or time.perf_counter() - start + warm[-1] / 2 < args.seconds:
        t0 = time.perf_counter()
        execution = workloads.execute(workload, args.seed, args.workdir)
        warm.append(time.perf_counter() - t0)
        check(f"warm {len(warm)}", execution)
    sample["warm_s"] = warm
    sample["executions"] = executions
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(1)
