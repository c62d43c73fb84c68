#!/usr/bin/env python3
"""Time the C driver of each bundled model, size its source and count the values it formats.

For each model in `src/syncha/models` it builds the network at
delta = 1/100 s, compiles its C unit with ``cc -O2`` and runs the
binary for N ticks with the trace written to the null device.  It
prints the ticks per second (best of R runs) next to the bytes of the
C source (automaton plus driver), the paper's two measures of generated
code, then the values the driver formats over the same ticks, counted
by a shim linked into a second build, next to the distinct doubles the
generic engine writes in the value columns, and last the minor page
faults of each timed run.  At this delta the time field needs no
formatting, so every value formatted is a miss of `put_g`'s text cache,
and a cache that keeps every value it has formatted formats as many
values as there are distinct ones.

    PYTHONPATH=src python3 scripts/c_probe.py --ticks 50000 --repeat 5
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from syncha import swa
from syncha.codegen import CUnit, build_binary, emit_c, find_cc, write_whole
from syncha.model import load_model
from syncha.swa import compile_automaton, compose_all, simulate

MODELS = Path(swa.__file__).resolve().parent / "models"
DELTA = Fraction(1, 100)

# Linked into a driver compiled with `-include` of COUNT_HEADER: every
# `fabs` call of the driver goes through it, and the number of calls is
# written to stderr at exit.  The emitted C is unchanged.  The driver's
# formatter ``fmt_g`` calls `fabs` once per value, at its start, and
# nothing else in the unit calls it, so the count is the number of values
# formatted, by ``fmt_g``'s own digits or by its `snprintf` fallback.  The
# header is included here too, so its macro is undone.
COUNTED_CALLS = r"""
#undef fabs
#include <math.h>
#include <stdio.h>
#include <stdlib.h>

static long calls;

static void report(void) {
    fprintf(stderr, "%ld\n", calls);
}

double counted_fabs(double x) {
    if (!calls++) atexit(report);
    return fabs(x);
}
"""
COUNT_HEADER = "#include <math.h>\ndouble counted_fabs(double);\n#define fabs counted_fabs\n"


def counted_binary(unit: CUnit, directory: Path) -> Path:
    """`unit` built with ``cc -O2`` in `directory` as one translation unit, like `build_binary`, the
    values it formats counted on stderr."""
    whole = write_whole(unit, directory)
    (directory / "count.c").write_text(COUNTED_CALLS)
    (directory / "count.h").write_text(COUNT_HEADER)
    binary = directory / f"{unit.name}_counted"
    cmd = [find_cc(), "-O2", "-include", str(directory / "count.h"), str(whole), str(directory / "count.c"),
           "-lm", "-o", str(binary)]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        raise RuntimeError(f"C compilation failed:\n{build.stderr}")
    return binary


def formatted_values(binary: Path, ticks: int) -> int:
    """The values a `counted_binary` run for `ticks` ticks formats."""
    proc = subprocess.run([str(binary), str(ticks)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    return int(proc.stderr or 0)


def distinct_values(product: swa.Swa, ticks: int) -> int:
    """The distinct doubles of each value column of the generic engine's trace, summed over the columns.

    They are collected by wrapping `swa.format_trace_row`.
    """
    real, seen = swa.format_trace_row, [set() for _ in product.variables]

    def spy(swa_, t, location, values, *events):
        values = tuple(values)
        for column, x in zip(seen, values):
            column.add(x.hex())
        return real(swa_, t, location, values, *events)

    swa.format_trace_row = spy
    try:
        with open(os.devnull, "w") as out:
            simulate(product, ticks, out=out, engine="generic")
    finally:
        swa.format_trace_row = real
    return sum(map(len, seen))


def rate(binary: Path, ticks: int, repeat: int) -> tuple[float, list[int]]:
    """Ticks per second of the best of `repeat` runs, the trace written to the null device, and the
    minor page faults of each run (``ru_minflt`` from `os.wait4`)."""
    best, faults = float("inf"), []
    with open(os.devnull, "w") as out:
        for _ in range(repeat):
            start = time.perf_counter()
            proc = subprocess.Popen([str(binary), str(ticks)], stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            best = min(best, time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            faults.append(usage.ru_minflt)
    return ticks / best, faults


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ticks", type=int, default=50_000, help="ticks per run")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per model, the best counts")
    args = ap.parse_args(argv)
    if find_cc() is None:
        print("no C compiler on PATH", file=sys.stderr)
        return 2
    print(f"{'model':<12} {'C ticks/s':>12} {'C bytes':>8} {'formatted':>10} {'distinct':>10}  minor faults")
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(MODELS.glob("*.pha")):
            product = compose_all(compile_automaton(ha, DELTA)[0] for ha in load_model(path).automata)
            unit = emit_c(product)
            directory = Path(tmp) / path.stem
            fast, faults = rate(build_binary(unit, directory), args.ticks, args.repeat)
            calls = formatted_values(counted_binary(unit, directory), args.ticks)
            size = len(unit.automaton_source) + len(unit.driver_source)
            print(f"{path.stem:<12} {fast:>12,.0f} {size:>8} {calls:>10} {distinct_values(product, args.ticks):>10}  "
                  + " ".join(map(str, faults)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
