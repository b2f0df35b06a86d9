"""Size ladder: per-layer growth of the stuck-at ATPG campaign as the circuit doubles.

    python3 perfbench/ladder.py [--seed N]

Runs the ``stuckat-atpg-rdag200`` spec traced at ``rdag:300,4``, ``rdag:600,4``
and ``rdag:1200,4`` (after one untraced warm-up at the smallest size) and prints
each layer's self time per size, and for each step its growth ratio and its
exponent ``log2(ratio) / log2(gate ratio)`` (1 is linear, 2 quadratic).  A layer
whose time grows more than ~2.5x per doubling of gates is superlinear.  It is
not a gated workload: one run takes about a minute, most of it at 1200 gates.
The last line of standard output is one JSON object with the per-size seconds
and the exponents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

from run import SRC, WORK

WORKLOAD = "stuckat-atpg-rdag200"
SIZES = (300, 600, 1200)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ladder: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[WORKLOAD]
    workdir = WORK / f"ladder-{os.getpid()}"
    seconds: dict[int, dict[str, float]] = {}
    try:
        workloads.execute(workload, args.seed, workdir, gates=SIZES[0])
        for gates in SIZES:
            tracer = Tracer(workdir / "trace")
            t0 = time.perf_counter()
            with tracer.installed():
                workloads.execute(workload, args.seed, workdir, gates=gates)
            wall = time.perf_counter() - t0
            tracer.collect()
            seconds[gates] = {layer: own + workers
                              for layer, own, workers in tracer.layer_table(wall)}
            seconds[gates]["(wall)"] = wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    layers = sorted(seconds[SIZES[-1]], key=lambda layer: -seconds[SIZES[-1]][layer])
    steps = list(zip(SIZES, SIZES[1:]))
    exponents: dict[str, list[float | None]] = {}
    header = f"{'layer':28s}" + "".join(f"{g:>10d}" for g in SIZES)
    header += "".join(f"{f'x {b}/{a}':>12s}{'exp':>7s}" for a, b in steps)
    print(header)
    for layer in layers:
        row = f"{layer:28s}" + "".join(f"{seconds[g].get(layer, 0.0):10.4f}" for g in SIZES)
        exponents[layer] = []
        for a, b in steps:
            ta, tb = seconds[a].get(layer, 0.0), seconds[b].get(layer, 0.0)
            if ta > 0 and tb > 0:
                exponent = math.log(tb / ta) / math.log(b / a)
                row += f"{tb / ta:12.2f}{exponent:7.2f}"
            else:
                exponent = None
                row += f"{'-':>12s}{'-':>7s}"
            exponents[layer].append(exponent)
        print(row)
    print(json.dumps({"seed": args.seed, "seconds": seconds, "exponents": exponents}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
