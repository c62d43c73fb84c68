#!/usr/bin/env python3
"""Show that every check of the benchmark passes good output and rejects bad.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload it runs syncha for a few thousand ticks, checks the
trace, then corrupts the trace or the product size one way at a time
(one altered value, a switch row shifted by a tick, a dropped event, a
dropped input, an extra state) and requires the matching check to fail.
Exits 0 when every check accepts the good output and rejects every
corruption.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from syncha.model import load_model, parse_model  # noqa: E402
from syncha.shagen import generate_sha  # noqa: E402
from syncha.swa import build_swa, compose_all, parse_stimulus, simulate  # noqa: E402

TICKS = {"bundled-long": 5000, "chain-growth": 2000, "switch-dense": 2000}


def product_and_trace(spec) -> tuple[object, list[str]]:
    net = load_model(spec.path) if spec.path else parse_model(workloads.render(spec))
    product = compose_all(build_swa(generate_sha(ha, spec.delta)[0]) for ha in net.automata)
    out = io.StringIO()
    simulate(product, spec.ticks, parse_stimulus(workloads.render_stimulus(spec)), out=out)
    return product, out.getvalue().splitlines(keepends=True)


def fields(line: str) -> list[str]:
    return line.rstrip("\n").split(",")


def join(f: list[str]) -> str:
    return ",".join(f) + "\n"


def switch_rows(lines: list[str]) -> list[int]:
    rows = [fields(l) for l in lines]
    return [i for i in range(2, len(rows)) if rows[i][2] != rows[i - 1][2]]


def alter_value(lines, spec):
    """Change the last digit of the first variable on a mid-trace evolution row."""
    i = len(lines) // 2
    while fields(lines[i])[2] != fields(lines[i - 1])[2] or fields(lines[i + 1])[2] != fields(lines[i])[2]:
        i += 1
    f = fields(lines[i])
    f[3] = repr(float(f[3]) * (1 + 1e-6) + 1e-6)
    return lines[:i] + [join(f)] + lines[i + 1 :]


def shift_switch(lines, spec):
    """Make the first switch that follows an evolution row happen one tick early."""
    for i in switch_rows(lines):
        if fields(lines[i - 1])[2] == fields(lines[i - 2])[2]:
            early, f = fields(lines[i - 1]), fields(lines[i])
            early[2:-2] = f[2:-2]
            early[-1] = f[-1]
            return lines[: i - 1] + [join(early)] + lines[i:]
    raise AssertionError("no switch to shift")


def drop_event(lines, spec):
    """Remove the first emitted event from the outputs column."""
    for i, line in enumerate(lines[1:], start=1):
        f = fields(line)
        if f[-1]:
            f[-1] = ";".join(f[-1].split(";")[1:])
            return lines[:i] + [join(f)] + lines[i + 1 :]
    raise AssertionError("no event to drop")


def drop_input(lines, spec):
    """Remove the first supplied input from the inputs column."""
    for i, line in enumerate(lines[1:], start=1):
        f = fields(line)
        if f[-2]:
            f[-2] = ""
            return lines[:i] + [join(f)] + lines[i + 1 :]
    raise AssertionError("no input to drop")


def trace_errors(spec, lines) -> list[str]:
    return checks.check_trace(spec, lines).errors


def replay_errors(spec, lines) -> list[str]:
    return checks.check_linear(spec, lines)


def size_errors(spec, product) -> list[str]:
    got = (len(product.states), sum(len(s.egress) for s in product.states))
    want = checks.product_size(spec)
    return [] if got == want else [f"product {got}, expected {want}"]


def main() -> int:
    ok = True

    def expect(label: str, errors: list[str], want_errors: bool) -> None:
        nonlocal ok
        good = bool(errors) == want_errors
        ok &= good
        verdict = ("rejected" if errors else "accepted") + ("" if good else "  <-- WRONG")
        detail = f"  ({errors[0][:90]})" if errors else ""
        print(f"  {label:<46} {verdict}{detail}")

    for name in workloads.WORKLOADS:
        spec = workloads.workload(name, 7, SRC / "syncha" / "models")
        spec = dataclasses.replace(spec[1] if name == "bundled-long" else spec[0], ticks=TICKS[name])
        product, lines = product_and_trace(spec)
        print(f"{name}: {spec.name}, {spec.ticks} ticks, {len(switch_rows(lines))} switch rows")
        checkers = [("trace rules", trace_errors)]
        if name == "chain-growth":
            checkers.append(("exact replay", replay_errors))
        corruptions = [("one altered value", alter_value), ("switch row a tick early", shift_switch),
                       ("dropped event", drop_event)]
        if name == "switch-dense":
            corruptions.append(("dropped input", drop_input))
        for check_name, check in checkers:
            expect(f"{check_name}, good trace", check(spec, lines), False)
            for label, corrupt in corruptions:
                expect(f"{check_name}, {label}", check(spec, corrupt(lines, spec)), True)
        expect("product size, good product", size_errors(spec, product), False)
        extra = dataclasses.replace(product, states=product.states + product.states[:1])
        expect("product size, one extra state", size_errors(spec, extra), True)
        good = hashlib.sha256("".join(lines).encode()).hexdigest()
        bad = hashlib.sha256("".join(alter_value(lines, spec)).encode()).hexdigest()
        expect("engines agree, one altered value", [] if good == bad else ["hash differs"], True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
