#!/usr/bin/env python3
"""Benchmark syncha end to end and layer by layer on one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bundled-long --seed 1 --seconds 32 --trace 0

`--workload all` runs every workload, each in a fresh process, prints
every metric by name with its unit, then one JSON object with all of
them.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, taken from spans recorded around every call into syncha.  A
human-readable summary goes to standard error.  See perfbench/README.md
for the workloads, the checks and how samples are taken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from workloads import WORKLOADS  # noqa: E402  (needs the path above)


def pin_to_one_cpu() -> None:
    """Keep this process and its children (cc, the CLI, the C binary) on one CPU.

    On a 2-CPU virtual machine a child started on the other CPU ran up to
    twice as long, and which CPU it got changed from run to run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_all(names, args) -> int:
    """Run each workload in a fresh process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
            print(f"{name:<14} {metric:<28} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "syncha" / "__init__.py").is_file():
        print(f"error: no syncha sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        print("error: no C compiler on PATH", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected 'all' or one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    wall = time.perf_counter()
    pin_to_one_cpu()
    from harness import Bench

    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        metrics = bench.run(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(f"  wall {time.perf_counter() - wall:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
