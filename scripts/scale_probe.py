#!/usr/bin/env python3
"""Time a network's set-up and a short traced run as a timer chain grows.

For each n it builds `tests/oracles.py`'s `timer_chain_source(n)`: n
event-linked two-location timers, whose product has 2**n states.  It
prints n, that product size (from the formula, never enumerated), the
time `compose_all` takes to build the network from the lowered
automata, the time `switch_plan` takes, and the time of a 2,000-tick
traced run of the specialised engine with its runner already built.
It reads the chain from the test helpers, so it needs the test
dependencies (numpy).

    PYTHONPATH=src python3 scripts/scale_probe.py 4 8 16 24
"""

import argparse
import io
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import timer_chain_source  # noqa: E402
from syncha.model import parse_model  # noqa: E402
from syncha.swa import compile_automaton, compose_all, simulate, switch_plan  # noqa: E402

DELTA = Fraction(1, 100)
TICKS = 2000


def probe(n: int) -> tuple[int, float, float, float]:
    """The product size and the seconds of the network build, the plan and the traced run."""
    swas = [compile_automaton(ha, DELTA)[0] for ha in parse_model(timer_chain_source(n)).automata]
    start = time.perf_counter()
    net = compose_all(swas)
    built = time.perf_counter()
    switch_plan(net)
    planned = time.perf_counter()
    simulate(net, 0, out=io.StringIO())  # builds the traced runner
    ran = time.perf_counter()
    simulate(net, TICKS, out=io.StringIO())
    done = time.perf_counter()
    return 2**n, built - start, planned - built, done - ran


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, nargs="*", default=[4, 8, 10, 12, 16, 24], help="chain lengths")
    args = ap.parse_args(argv)
    print(f"{'n':>3} {'product states':>15} {'network':>10} {'plan':>10} {f'{TICKS} ticks':>12}")
    for n in args.n:
        states, network, plan, run = probe(n)
        print(f"{n:>3} {states:>15,} {network * 1e3:>8.2f}ms {plan * 1e3:>8.2f}ms {run * 1e3:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
