"""Workload inputs: the shipped networks and the generated ones.

Every network comes with an independent description (`NetSpec`) of its
automata: flows, invariants, edges and stimulus, written out here rather
than read back from syncha.  The generated networks are rendered to
`.pha` text from that description; the shipped ones are described by
hand from their model files.  The checks in `checks.py` compare traces
against these descriptions, never against syncha's own data structures.

The command-line seed draws the names of every automaton, variable,
location and event of the generated networks.  Names have a fixed
length and a kind prefix, so the dynamics, the sizes of the generated
code and every count stay the same for every seed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

DELTA = Fraction(1, 100)


@dataclass(frozen=True)
class Loc:
    name: str
    flows: tuple[tuple[str, Fraction, Fraction], ...]  # (var, a, b): var' = a*var + b
    inv: tuple[tuple[str, str, Fraction], ...]  # (var, op, bound), op in <=, >=, ==


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    on: tuple[str, ...] = ()
    guard: tuple[tuple[str, str, Fraction], ...] = ()
    updates: tuple[tuple[str, Fraction, Fraction], ...] = ()  # var' := scale*var + offset
    emits: tuple[str, ...] = ()


@dataclass(frozen=True)
class Comp:
    name: str
    init: tuple[tuple[str, Fraction], ...]
    locs: tuple[Loc, ...]
    edges: tuple[Edge, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.init)

    @cached_property
    def triggers(self) -> frozenset[str]:
        return frozenset(e for edge in self.edges for e in edge.on)

    @cached_property
    def _by_name(self) -> dict[str, Loc]:
        return {l.name: l for l in self.locs}

    def loc(self, name: str) -> Loc:
        return self._by_name[name]


@dataclass(frozen=True)
class NetSpec:
    name: str
    comps: tuple[Comp, ...]
    ticks: int
    stimulus: tuple[tuple[int, str], ...] = ()  # (tick, event) rows
    path: Path | None = None  # shipped model file; generated ones are rendered
    with_c: bool = True  # also emit, compile and run C for this network
    delta: Fraction = DELTA

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for c in self.comps for v in c.variables)

    @cached_property
    def inputs(self) -> tuple[str, ...]:
        outs = {e for c in self.comps for e in c.outputs}
        return tuple(dict.fromkeys(e for c in self.comps for e in c.inputs if e not in outs))


def F(text) -> Fraction:
    return Fraction(str(text))


def _num(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    text = f"{float(q):.12f}".rstrip("0")
    if Fraction(text) != q:
        raise ValueError(f"{q} has no short decimal form")
    return text


def _affine(var: str, a: Fraction, b: Fraction) -> str:
    if a == 0:
        return _num(b)
    text = f"{_num(a)} * {var}"
    if b > 0:
        text += f" + {_num(b)}"
    elif b < 0:
        text += f" - {_num(-b)}"
    return text


def _conj(items) -> str:
    return " && ".join(f"{v} {op} {_num(bound)}" for v, op, bound in items)


def render(net: NetSpec) -> str:
    """The `.pha` text of a generated network."""
    lines = [f"network {net.name}", ""]
    for comp in net.comps:
        lines.append(f"automaton {comp.name}")
        for var, x0 in comp.init:
            lines.append(f"  var {var} init {_num(x0)}")
        if comp.inputs:
            lines.append("  input " + " ".join(comp.inputs))
        if comp.outputs:
            lines.append("  output " + " ".join(comp.outputs))
        for i, loc in enumerate(comp.locs):
            lines.append("")
            lines.append(f"  {'initial location' if i == 0 else 'location'} {loc.name}")
            lines.append(f"    invariant {_conj(loc.inv)}")
            for var, a, b in loc.flows:
                lines.append(f"    flow {var}' = {_affine(var, a, b)}")
        lines.append("")
        for e in comp.edges:
            text = f"  edge {e.src} -> {e.dst}"
            if e.on:
                text += " on " + " && ".join(e.on)
            if e.guard:
                text += " guard " + _conj(e.guard)
            if e.updates:
                text += " do " + ", ".join(
                    f"{v}' := {_affine(v, s, o)}" for v, s, o in e.updates
                )
            if e.emits:
                text += " emit " + " ".join(e.emits)
            lines.append(text)
        lines.append("")
    return "\n".join(lines)


def render_stimulus(net: NetSpec) -> str:
    return "tick,events\n" + "".join(f"{t},{e}\n" for t, e in net.stimulus)


class Namer:
    """Distinct names of one fixed length: a kind prefix plus three letters."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.used: set[str] = set()

    def __call__(self, prefix: str) -> str:
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            if name not in self.used:
                self.used.add(name)
                return name


# --- bundled-long: the three shipped networks, described by hand ---------------


def _clock_loc(name, var, hi, rate=F(1)):
    return Loc(name, ((var, F(0), rate),), ((var, ">=", F(0)), (var, "<=", F(hi))))


def bundled(models_dir: Path, ticks: int) -> list[NetSpec]:
    thermo = Comp(
        "thermo",
        (("x", F(22)),),
        (
            Loc("cooling", (("x", F("-0.1"), F(0)),), (("x", ">=", F(18)), ("x", "<=", F(22)))),
            Loc("heating", (("x", F("-0.2"), F(6)),), (("x", ">=", F(18)), ("x", "<=", F(22)))),
        ),
        (
            Edge("cooling", "heating", guard=(("x", "==", F(18)),)),
            Edge("heating", "cooling", guard=(("x", "==", F(22)),)),
        ),
    )
    tank = Comp(
        "tank",
        (("x", F(20)),),
        (
            Loc("t1", (("x", F(0), F(0)),), (("x", "==", F(20)),)),
            Loc("t2", (("x", F("-0.075"), F("11.25")),), (("x", ">=", F(20)), ("x", "<=", F(100)))),
            Loc("t3", (("x", F(0), F(0)),), (("x", "==", F(100)),)),
            Loc("t4", (("x", F("-0.075"), F(0)),), (("x", ">=", F(20)), ("x", "<=", F(100)))),
        ),
        (
            Edge("t1", "t2", on=("ON",), guard=(("x", "==", F(20)),)),
            Edge("t2", "t3", guard=(("x", "==", F(100)),)),
            Edge("t2", "t4", on=("OFF",)),
            Edge("t3", "t4", on=("OFF",)),
            Edge("t4", "t2", on=("ON",)),
            Edge("t4", "t1", guard=(("x", "==", F(20)),)),
        ),
        inputs=("ON", "OFF"),
    )
    burner = Comp(
        "burner",
        (("c", F(0)),),
        (_clock_loc("b1", "c", 25), _clock_loc("b2", "c", 15)),
        (
            Edge("b1", "b2", guard=(("c", "==", F(25)),), updates=(("c", F(0), F(0)),), emits=("ON",)),
            Edge("b2", "b1", guard=(("c", "==", F(15)),), updates=(("c", F(0), F(0)),), emits=("OFF",)),
        ),
        outputs=("ON", "OFF"),
    )
    train = Comp(
        "train",
        (("x", F(1000)),),
        (
            Loc("far", (("x", F(0), F(-24)),), (("x", ">=", F(500)), ("x", "<=", F(1000)))),
            Loc("near", (("x", F(0), F(-24)),), (("x", ">=", F(0)), ("x", "<=", F(500)))),
        ),
        (
            Edge("far", "near", guard=(("x", "==", F(500)),), emits=("CLOSE",)),
            Edge("near", "far", guard=(("x", "==", F(0)),), updates=(("x", F(0), F(1000)),), emits=("OPEN",)),
        ),
        outputs=("CLOSE", "OPEN"),
    )
    gate = Comp(
        "gate",
        (("y", F(10)),),
        (
            Loc("up", (("y", F(0), F(0)),), (("y", "==", F(10)),)),
            Loc("down", (("y", F(0), F(0)),), (("y", "==", F(0)),)),
            Loc("raising", (("y", F(0), F(2)),), (("y", ">=", F(0)), ("y", "<=", F(10)))),
        ),
        (
            Edge("up", "down", on=("CLOSE",), updates=(("y", F(0), F(0)),)),
            Edge("down", "raising", on=("OPEN",)),
            Edge("raising", "up", guard=(("y", "==", F(10)),)),
        ),
        inputs=("CLOSE", "OPEN"),
    )
    return [
        NetSpec("thermostat", (thermo,), ticks, path=models_dir / "thermostat.pha"),
        NetSpec("watertank", (tank, burner), ticks, path=models_dir / "watertank.pha"),
        NetSpec("traingate", (train, gate), ticks, path=models_dir / "traingate.pha"),
    ]


# --- chain-growth: event-linked two-location timers ----------------------------

# Clocks run at 1/delta, so every evolution tick adds exactly 1.0 and all
# switch ticks are integers.  Timer 0 runs free (ON_TICKS then OFF_TICKS);
# timer i idles until timer i-1 finishes, then counts BUSY_TICKS[i-1].  Each
# busy period is shorter than timer 0's cycle, so no event reaches a busy
# timer and the network never gets stuck.
ON_TICKS, OFF_TICKS = 30, 34
BUSY_TICKS = (11, 23, 17, 29)
CHAIN_SIZES = (2, 3, 4, 5)
C_CHAIN_MAX = 3  # cc needs about 6 s for n = 4 and 40 s for n = 5 at -O2
CLOCK_RATE = 1 / DELTA


def chain(n: int, names: Namer, ticks: int) -> NetSpec:
    comps = []
    events = [names("E") for _ in range(n)]
    for i in range(n):
        var = names("X")
        a, b = names("L"), names("L")
        if i == 0:
            locs = (_clock_loc(a, var, ON_TICKS, CLOCK_RATE), _clock_loc(b, var, OFF_TICKS, CLOCK_RATE))
            edges = (
                Edge(a, b, guard=((var, "==", F(ON_TICKS)),), updates=((var, F(0), F(0)),), emits=(events[0],)),
                Edge(b, a, guard=((var, "==", F(OFF_TICKS)),), updates=((var, F(0), F(0)),)),
            )
            ins = ()
        else:
            busy = BUSY_TICKS[i - 1]
            locs = (
                Loc(a, ((var, F(0), F(0)),), ((var, ">=", F(0)), (var, "<=", F(0)))),
                _clock_loc(b, var, busy, CLOCK_RATE),
            )
            edges = (
                Edge(a, b, on=(events[i - 1],)),
                Edge(b, a, guard=((var, "==", F(busy)),), updates=((var, F(0), F(0)),), emits=(events[i],)),
            )
            ins = (events[i - 1],)
        comps.append(Comp(names("A"), ((var, F(0)),), locs, edges, ins, (events[i],)))
    return NetSpec(names("N"), tuple(comps), ticks, with_c=n <= C_CHAIN_MAX)


# --- switch-dense: short periods, multi-variable guards, an external input -----

SHAPE_SEEDS = (11, 12)  # fix the constants of the two generated networks
STIMULUS_GAP = (3, 25)  # ticks between external inputs


def switch_dense(shape_seed: int, names: Namer, ticks: int) -> NetSpec:
    """A pulse clock driving a two-variable mixer that also takes an input.

    The clock emits K every few ticks; the mixer reacts to K and to the
    external input IN, leaves its rising location when its level x
    reaches the ceiling (emitting J) or its timer y runs out.  Every
    location of the mixer has an edge for each event it listens to, and
    each event edge guards `x <= top`, so a level that crossed its
    ceiling on the same tick snaps onto it: the network never gets stuck.
    """
    rng = random.Random(shape_seed)
    pick = lambda lo, hi: F(rng.randint(lo, hi))
    on, off = pick(3, 8), pick(3, 8)
    rise, decay = pick(5, 20), pick(2, 8)
    y0, y1 = pick(10, 16), pick(4, 10)
    top, ceiling, restart = F(40), F(60), pick(5, 25)
    gaps = [rng.randint(*STIMULUS_GAP) for _ in range(ticks // STIMULUS_GAP[0])]

    k, j, inp = names("E"), names("E"), names("E")
    p, x, y = names("X"), names("X"), names("X")
    c0, c1, m0, m1 = (names("L") for _ in range(4))
    zero = F(0)
    clk = Comp(
        names("A"),
        ((p, zero),),
        (_clock_loc(c0, p, on, CLOCK_RATE), _clock_loc(c1, p, off, CLOCK_RATE)),
        (
            Edge(c0, c1, guard=((p, "==", on),), updates=((p, zero, zero),), emits=(k,)),
            Edge(c1, c0, guard=((p, "==", off),), updates=((p, zero, zero),)),
        ),
        outputs=(k,),
    )
    level = lambda yhi: ((x, ">=", zero), (x, "<=", top), (y, ">=", zero), (y, "<=", yhi))
    mix = Comp(
        names("A"),
        ((x, restart), (y, zero)),
        (
            Loc(m0, ((x, -rise, rise * ceiling), (y, zero, CLOCK_RATE)), level(y0)),
            Loc(m1, ((x, -decay, zero), (y, zero, CLOCK_RATE)), level(y1)),
        ),
        (
            Edge(m0, m1, on=(inp,), guard=((x, "<=", top),), updates=((y, zero, zero),)),
            Edge(m0, m1, on=(k,), guard=((x, "<=", top),), updates=((x, F("0.5"), zero), (y, zero, zero))),
            Edge(m0, m1, guard=((x, "==", top), (y, "<=", y0)), updates=((y, zero, zero),), emits=(j,)),
            Edge(m0, m1, guard=((y, "==", y0),), updates=((x, zero, restart), (y, zero, zero))),
            Edge(m1, m0, on=(inp,), guard=((x, "<=", top),), updates=((y, zero, zero),)),
            Edge(m1, m0, on=(k,), guard=((x, "<=", top),), updates=((x, F("0.5"), F(2)), (y, zero, zero))),
            Edge(m1, m0, guard=((y, "==", y1),), updates=((y, zero, zero),)),
        ),
        inputs=(inp, k),
        outputs=(j,),
    )
    stimulus, t = [], 0
    for gap in gaps:
        t += gap
        if t >= ticks:
            break
        stimulus.append((t, inp))
    return NetSpec(names("N"), (clk, mix), ticks, tuple(stimulus))


def workload(name: str, seed: int, models_dir: Path) -> list[NetSpec]:
    names = Namer(seed)
    if name == "bundled-long":
        return bundled(models_dir, BUNDLED_TICKS)
    if name == "chain-growth":
        return [chain(n, names, CHAIN_TICKS) for n in CHAIN_SIZES]
    if name == "switch-dense":
        return [switch_dense(s, names, SWITCH_TICKS) for s in SHAPE_SEEDS]
    raise ValueError(f"unknown workload {name!r}")


BUNDLED_TICKS = 50_000
CHAIN_TICKS = 20_000
SWITCH_TICKS = 50_000
WORKLOADS = ("bundled-long", "chain-growth", "switch-dense")
