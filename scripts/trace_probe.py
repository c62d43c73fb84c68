#!/usr/bin/env python3
"""Time traced and untraced runs of the bundled models.

For each model in `src/syncha/models` it builds the network at
delta = 1/100 s and runs the specialised engine for N ticks, with a
trace written to the null device and without one, its runners built
beforehand.  It prints the ticks per second of each (best of R runs),
the fast-forward's jumps (`swa._Jump`) asked at step `_JUMP_AFTER` and
those whose horizon came from the run's memo, the value texts the
fast-forward formats next to the distinct value texts of the trace, and
the share of the trace rows written in batches by the fast-forward
rather than by the runner stepping a tick.  A memo that kept every text
it formatted, shared by every stretch that could share it, would format
at most as many texts as there are distinct ones.  It exits with 1 when
a traced run's trace differs from the generic engine's.

    PYTHONPATH=src python3 scripts/trace_probe.py --ticks 10000 --repeat 5
"""

import argparse
import io
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from syncha import swa
from syncha.model import load_model
from syncha.swa import compile_automaton, compose_all, simulate

MODELS = Path(swa.__file__).resolve().parent / "models"
DELTA = Fraction(1, 100)


def jumps(product: swa.Swa, ticks: int) -> tuple[int, int, int]:
    """A traced run's jumps asked at `_JUMP_AFTER`, jumps taken from the memo and rows written in batches.

    They are counted by wrapping `_Jump.__call__`.
    """
    real, counts = swa._Jump.__call__, [0, 0, 0]

    def spy(self, t, k, nxt, ticks_, key, memo, batch=None):
        counts[0] += k == swa._JUMP_AFTER
        counts[1] += key in memo
        result = real(self, t, k, nxt, ticks_, key, memo, batch)
        counts[2] += result[0] - t
        return result

    swa._Jump.__call__ = spy
    try:
        with open(os.devnull, "w") as out:
            simulate(product, ticks, out=out)
    finally:
        swa._Jump.__call__ = real
    return tuple(counts)


def texts(product: swa.Swa, ticks: int) -> tuple[int, int, bool]:
    """The value texts a traced run's fast-forward formats, the distinct value texts of its trace,
    and whether the generic engine writes the same trace.

    Formatted texts are counted by wrapping `swa._witness_values`, whose values `_Jump.texts`
    formats, and `swa._fmt`, which formats a held value's text once per jump.  Distinct texts
    are counted per value column and summed over the columns.
    """
    real_values, real_fmt, count = swa._witness_values, swa._fmt, [0]

    def values(w, c1, steps, delta_f):
        count[0] += len(steps)
        return real_values(w, c1, steps, delta_f)

    def fmt(x):
        count[0] += 1
        return real_fmt(x)

    swa._witness_values, swa._fmt = values, fmt
    try:
        traced = io.StringIO()
        simulate(product, ticks, out=traced)
    finally:
        swa._witness_values, swa._fmt = real_values, real_fmt
    generic = io.StringIO()
    simulate(product, ticks, out=generic, engine="generic")
    rows = [row.split(",")[3:3 + len(product.variables)] for row in traced.getvalue().splitlines()[1:]]
    distinct = sum(len(set(column)) for column in zip(*rows))
    return count[0], distinct, traced.getvalue() == generic.getvalue()


def rate(product: swa.Swa, ticks: int, traced: bool, repeat: int) -> float:
    """Ticks per second of the best of `repeat` runs."""
    best = float("inf")
    with open(os.devnull, "w") as out:
        simulate(product, 1, out=out if traced else None)  # builds the runner
        for _ in range(repeat):
            start = time.perf_counter()
            simulate(product, ticks, out=out if traced else None)
            best = min(best, time.perf_counter() - start)
    return ticks / best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ticks", type=int, default=10_000, help="ticks per run")
    ap.add_argument("--repeat", type=int, default=5, help="runs per rate, the best counts")
    args = ap.parse_args(argv)
    asked_at = f"jumps at {swa._JUMP_AFTER}"
    print(f"{'model':<12} {'traced ticks/s':>15} {'untraced ticks/s':>17} {asked_at:>12} {'from memo':>10}"
          f" {'texts':>7} {'distinct':>9} {'rows batched':>13}")
    differ = []
    for path in sorted(MODELS.glob("*.pha")):
        product = compose_all(compile_automaton(ha, DELTA)[0] for ha in load_model(path).automata)
        traced, untraced = (rate(product, args.ticks, t, args.repeat) for t in (True, False))
        asked, remembered, rows = jumps(product, args.ticks)
        formatted, distinct, same = texts(product, args.ticks)
        print(f"{path.stem:<12} {traced:>15,.0f} {untraced:>17,.0f} {asked:>12} {remembered:>10}"
              f" {formatted:>7} {distinct:>9} {rows / args.ticks:>12.1%}")
        if not same:
            differ.append(path.stem)
    if differ:
        print(f"the traced output differs from the generic engine's: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
