#!/usr/bin/env python3
"""Count the evolve stretches of the bundled models and of timer chains.

A stretch runs from a switch (or the start of the run) to the next
switch; its length is the step k whose evolve test failed there, and
its key is what the fast-forward's horizon memo is keyed on: the
product state and every variable's entry constant c1.  For each
network, stepped by the generic engine for N ticks with no stimulus,
it prints the completed stretches, their distinct keys, the stretches
that re-enter a key an earlier one had, the lengths' quartiles, the
tick on which a switch configuration first recurs and its period (a
switch tick's configuration is its product state, the bit patterns of
its values and the events it leaves pending; `oracles.first_recurrence`),
the tick of the specialised engine's first jump over whole periods
without and with a trace (read by `oracles.Inline`; "-" for none
within N ticks), and its ticks per second without and with a trace
written to the null device (best of R runs, runner built beforehand).
The chains are `tests/oracles.py`'s `timer_chain_source(n)`, so the
script needs the test dependencies (numpy).

    PYTHONPATH=src python3 scripts/stretch_probe.py --ticks 20000 --repeat 5 --chains 2 3 4 5
"""

import argparse
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import Inline, first_recurrence, timer_chain_source  # noqa: E402
from syncha import swa  # noqa: E402
from syncha.model import load_model, parse_model  # noqa: E402
from syncha.odesolve import resolve_c1  # noqa: E402
from syncha.swa import compile_automaton, compose_all, initial_exec_state, simulate, switch_plan  # noqa: E402

MODELS = Path(swa.__file__).resolve().parent / "models"
DELTA = Fraction(1, 100)


def stretches(product: swa.Swa, ticks: int) -> list[tuple[tuple, int]]:
    """Each completed stretch's key and length, stepping the generic engine."""
    plan, st, done = switch_plan(product), initial_exec_state(product), []
    for _ in range(ticks):
        nxt, _ = swa.tick(product, st)
        if nxt.k == 0:
            j = plan.index[st.location]
            c1 = tuple(resolve_c1(w, st.i[var]) for loc in plan.at(j) for var, w in loc.witnesses)
            done.append(((j, c1), st.k))
        st = nxt
    return done


def rate(product: swa.Swa, ticks: int, repeat: int, traced: bool) -> float:
    with open(os.devnull, "w") as null:
        out = null if traced else None
        simulate(product, 1, out=out)  # builds the runner
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            simulate(product, ticks, out=out)
            best = min(best, time.perf_counter() - start)
    return ticks / best


def first_cycle(product: swa.Swa, ticks: int, traced: bool) -> int | str:
    cycles = Inline(product, ticks, traced=traced).cycles
    return cycles[0][0] if cycles else "-"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ticks", type=int, default=20_000, help="ticks per run")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per network, the best counts")
    ap.add_argument("--chains", type=int, nargs="*", default=[2, 3, 4, 5], help="timer chain lengths")
    args = ap.parse_args(argv)
    networks = [(path.stem, load_model(path)) for path in sorted(MODELS.glob("*.pha"))]
    networks += [(f"chain{n}", parse_model(timer_chain_source(n))) for n in args.chains]
    print(f"{'network':<12} {'stretches':>9} {'keys':>6} {'re-entered':>10} {'q1/median/q3':>14}"
          f" {'recurs at':>9} {'period':>6} {'untraced jump':>13} {'traced jump':>11}"
          f" {'untraced ticks/s':>17} {'traced ticks/s':>15}")
    for name, net in networks:
        product = compose_all(compile_automaton(ha, DELTA)[0] for ha in net.automata)
        done, recurrence = stretches(product, args.ticks), first_recurrence(product, args.ticks)
        seen: set[tuple] = set()
        again = sum(key in seen or seen.add(key) or False for key, _ in done)
        lengths = [k for _, k in done]
        quartiles = "/".join(f"{q:g}" for q in statistics.quantiles(lengths, n=4)) if len(lengths) > 1 else "-"
        recurs, period = recurrence or ("-", "-")
        jumps = [first_cycle(product, args.ticks, traced) for traced in (False, True)]
        rates = [rate(product, args.ticks, args.repeat, traced) for traced in (False, True)]
        print(f"{name:<12} {len(done):>9} {len(seen):>6} {again:>10} {quartiles:>14}"
              f" {recurs:>9} {period:>6} {jumps[0]:>13} {jumps[1]:>11} {rates[0]:>17,.0f} {rates[1]:>15,.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
