#!/usr/bin/env python3
"""Time traced and untraced runs of the bundled models.

For each model in `src/syncha/models` it builds the network at
delta = 1/100 s and runs the specialised engine for N ticks, with a
trace written to the null device and without one, its runners built
beforehand.  It prints the ticks per second of each (best of R runs),
the fast-forward's jumps (`swa._Jump`) asked at step `_JUMP_AFTER` and
those whose horizon came from the run's memo, and the share of the trace
rows written in batches by the fast-forward rather than by the runner
stepping a tick.

    PYTHONPATH=src python3 scripts/trace_probe.py --ticks 10000 --repeat 5
"""

import argparse
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
          f" {'rows batched':>13}")
    for path in sorted(MODELS.glob("*.pha")):
        product = compose_all(compile_automaton(ha, DELTA)[0] for ha in load_model(path).automata)
        traced, untraced = (rate(product, args.ticks, t, args.repeat) for t in (True, False))
        asked, remembered, rows = jumps(product, args.ticks)
        print(f"{path.stem:<12} {traced:>15,.0f} {untraced:>17,.0f} {asked:>12} {remembered:>10}"
              f" {rows / args.ticks:>12.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
