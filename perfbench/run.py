"""End-to-end campaign benchmark: one workload per run, from circuit reference to result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures with tracing off, in fresh interpreters (``sample.py``):
each one sets up, runs the workload cold, then warm for its share of
``--seconds`` of warm time.  ``--trace 1`` runs the workload in this process
once untraced and once traced and reports the per-layer metrics of
:mod:`tracer`.  Every execution's result is checked, and every run also
executes the workload once at the default seed, untimed, to compare it with
the digest recorded in ``digests.json`` (see ``README.md``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check
failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters per run, each one cold and then warm.
PROCESSES = 8
CHILD_TIMEOUT_S = 90

END_TO_END = (
    ("campaign_s", "s"),
    ("cold_s", "s"),
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fault_coverage", "ratio"),
    ("test_efficiency", "ratio"),
    ("compacted_tests", "count"),
)


class Checker:
    """Counts attempted and failed executions and says why each one failed.

    An execution at the default seed must give the digest recorded in
    ``digests.json``; one at the run's seed must give that of the run's first.
    """

    def __init__(self, recorded: str, default_seed: int, seed: int):
        self.recorded = recorded
        self.default_seed = default_seed
        self.seed = seed
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, seed: int, digest: str, problems: list[str]) -> None:
        self.attempted += 1
        bad = list(problems)
        if seed == self.default_seed and digest != self.recorded:
            bad.append(f"digest {digest} differs from the one recorded at seed {seed}")
        if seed == self.seed and self.digest is None:
            self.digest = digest
        elif seed == self.seed and digest != self.digest:
            bad.append(f"digest {digest} differs from this run's first result {self.digest}")
        self.fail(label, bad)

    def fail(self, label: str, problems: list[str], attempted: int = 0) -> None:
        self.attempted += attempted
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Bench:
    def __init__(self, workload, seed: int, workdir: Path):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        recorded = json.loads((HERE / "digests.json").read_text())["digests"]
        self.checker = Checker(recorded[workload.name], workloads.DEFAULT_SEED, seed)

    def execute(self, label: str, workload=None, seed: int | None = None):
        """One timed execution in this process, checked afterwards.

        Returns (seconds, Execution), or None when it raised.
        """
        workload = workload or self.workload
        seed = self.seed if seed is None else seed
        t0 = time.perf_counter()
        try:
            execution = self.workloads.execute(workload, seed, self.workdir / "warm")
        except Exception:
            self.checker.fail(label, [traceback.format_exc()], attempted=1)
            return None
        seconds = time.perf_counter() - t0
        self.checker.record(label, seed, execution.check(), execution.problems)
        return seconds, execution

    def sample(self, label: str, extra: list[str]) -> dict | None:
        """Run ``sample.py`` in a fresh interpreter and check what it reports."""
        cmd = [
            sys.executable, str(HERE / "sample.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--workdir", str(self.workdir / "cold"),
        ] + extra
        launch = time.perf_counter()
        proc = subprocess.Popen(
            cmd + ["--launch", repr(launch)], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The child's process group also holds a sharded run's pool workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.checker.fail(label, [f"timed out after {CHILD_TIMEOUT_S} s"], attempted=1)
            return None
        lines = out.strip().splitlines()
        try:
            sample = json.loads(lines[-1]) if lines else {"error": err}
        except ValueError:
            sample = {"error": f"unreadable output: {out[-2000:]}{err[-2000:]}"}
        if proc.returncode != 0 or "error" in sample:
            self.checker.fail(
                label, [sample.get("error") or f"exit code {proc.returncode}: {err}"],
                attempted=1,
            )
            return None
        for execution in sample.get("executions", []):
            self.checker.record(
                f"{label} {execution['label']}", execution["seed"], execution["digest"],
                execution["problems"],
            )
        return sample

    def untraced(self, seconds: float) -> tuple[dict, list[str]]:
        runs = []
        for i in range(PROCESSES):
            # Spread what is left of the warm budget over the remaining processes.
            left = seconds - sum(t for s in runs for t in s["warm_s"])
            extra = ["--seconds", repr(max(0.0, left) / (PROCESSES - i))]
            sample = self.sample(f"process {i}", extra + (["--reference"] if i == 0 else []))
            if sample:
                runs.append(sample)
        samples = {
            "campaign_s": [t for s in runs for t in s["warm_s"]],
            "cold_s": [s["cold_s"] for s in runs],
            "setup_s": [s["setup_s"] for s in runs],
            "peak_rss_mb": [s["peak_rss_mb"] for s in runs],
        }
        metrics = {name: statistics.median(v) for name, v in samples.items() if v}
        lines = [
            f"{name:16s} {statistics.median(v):10.4f}  median of {len(v)}, "
            f"range {min(v):.4f}..{max(v):.4f}"
            for name, v in samples.items() if v
        ]
        if runs:
            result = runs[0]["result"]
            if "campaign_s" in metrics:
                metrics["faults_per_s"] = result["faults"] / metrics["campaign_s"]
            for name in ("fault_coverage", "test_efficiency", "compacted_tests"):
                metrics[name] = result[name]
            lines.append("result: " + json.dumps(result))
        return metrics, lines

    def traced(self) -> tuple[dict, list[str]]:
        from tracer import Tracer

        if self.execute("warm-up") is None:
            return {}, []
        default_seed = self.workloads.DEFAULT_SEED
        if self.seed != default_seed:
            self.execute("default seed", seed=default_seed)
        if self.workload.reference:
            # A sharded workload must reproduce its unsharded reference bit for bit.
            self.execute("unsharded reference", self.workloads.WORKLOADS[self.workload.reference])
        untraced = self.execute("untraced")
        tracer = Tracer(self.workdir / "trace")
        t0 = time.perf_counter()
        try:
            with tracer.installed():
                execution = self.workloads.execute(self.workload, self.seed, self.workdir / "warm")
        except Exception:
            self.checker.fail("traced", [traceback.format_exc()], attempted=1)
            return {}, []
        wall = time.perf_counter() - t0
        tracer.collect()
        tracer.probe_codegen()
        self.checker.record("traced", self.seed, execution.check(), execution.problems)

        metrics = tracer.summary(wall)
        if untraced is not None:
            metrics["trace.overhead_s"] = wall - untraced[0]
        lines = [f"{'layer':28s} {'parent self s':>14s} {'worker self s':>14s}"]
        lines += [
            f"{layer:28s} {own:14.4f} {workers:14.4f}"
            for layer, own, workers in tracer.layer_table(wall)
        ]
        lines.append(f"{'traced wall':28s} {wall:14.4f}")
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"trace-{self.workload.name}-seed{self.seed}.json").write_text(
            json.dumps(
                {"wall_s": wall, "spans": tracer.spans, "worker_spans": tracer.worker_spans,
                 "metrics": metrics}
            )
        )
        return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the seed of digests.json")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        bench = Bench(WORKLOADS[args.workload], seed, workdir)
        metrics, lines = bench.traced() if args.trace else bench.untraced(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = bench.checker
    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name, _ in units if name not in metrics]
    for line in lines + checker.problems + ([f"not measured: {missing}"] if missing else []):
        print(line)
    correct = checker.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
