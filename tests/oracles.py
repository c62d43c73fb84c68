"""Independent reference implementations used to cross-check the package.

The oracles recompute their answers from first principles (numerical
integration, dense sampling, direct transcription of the product loops,
a scan of the product's egress list), reusing only the package's plain
data types, witnesses and update arithmetic.  `Inline` reads what the
specialised runner does from its frame, for tests and probes that state
its fast-forward schedule.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass

import numpy as np

from syncha.expr import Constraint
from syncha.model import EventExpr, HybridAutomaton
from syncha.odesolve import resolve_c1
from syncha.swa import ExecState, Swa, UnreachableState, format_trace_row, initial_exec_state
from syncha.swa import trace_header, _eval_update, _runner_source, simulate, tick as generic_tick

# --- numerical integration ----------------------------------------------------


def rk4_affine(a, b, x0, n_steps, h=1e-4):
    """Integrate x' = a*x + b over n_steps fixed RK4 steps of size h.

    All arguments may be numpy arrays; cases finish at their own step
    count and keep their final value afterwards.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    n_steps = np.asarray(n_steps)
    result = np.array(x, copy=True)
    for step in range(int(n_steps.max())):
        k1 = a * x + b
        k2 = a * (x + 0.5 * h * k1) + b
        k3 = a * (x + 0.5 * h * k2) + b
        k4 = a * (x + h * k3) + b
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done = n_steps == step + 1
        result = np.where(done, x, result)
    return result


# --- sign sampling -------------------------------------------------------------


def sampled_directions(a: float, b: float, lo: float, hi: float, samples: int = 10000):
    """Which signs a*x + b takes on a dense grid over [lo, hi].

    Returns (any_positive, any_negative); a brute-force stand-in for the
    symbolic sign-region intersection.
    """
    xs = np.linspace(lo, hi, samples)
    values = a * xs + b
    return bool((values > 0).any()), bool((values < 0).any())


# --- product construction, re-derived ------------------------------------------


@dataclass(frozen=True)
class EgressShape:
    """Structure of one product transition, stripped to comparable parts."""

    dst: str
    present: tuple[str, ...]
    absent: tuple[str, ...]
    groups: int
    saturable: tuple[bool, ...]
    updates: tuple[str, ...]
    emits: tuple[str, ...]


def _dedup(items):
    seen: dict[str, None] = {}
    for x in items:
        seen.setdefault(x, None)
    return tuple(seen)


def expected_product_egress(
    ha1: HybridAutomaton, ha2: HybridAutomaton, q1: str, q2: str
) -> list[EgressShape]:
    """Re-derive the egress list of product state (q1, q2) by direct loops:
    every pair of component transitions first, then each left transition
    against a silent right side, then the mirror case."""
    edges1 = ha1.edges_from(q1)
    edges2 = ha2.edges_from(q2)
    trig1 = ha1.trigger_events()
    trig2 = ha2.trigger_events()
    shapes: list[EgressShape] = []
    for e1 in edges1:
        for e2 in edges2:
            shapes.append(
                EgressShape(
                    dst=e1.dst + e2.dst,
                    present=_dedup(e1.event.present + e2.event.present),
                    absent=_dedup(e1.event.absent + e2.event.absent),
                    groups=2,
                    saturable=(True, True),
                    updates=tuple(v for v, _ in e1.updates + e2.updates),
                    emits=e1.emits + e2.emits,
                )
            )
    for e1 in edges1:
        shapes.append(
            EgressShape(
                dst=e1.dst + q2,
                present=e1.event.present,
                absent=_dedup(e1.event.absent + trig2),
                groups=2,
                saturable=(True, False),
                updates=tuple(v for v, _ in e1.updates),
                emits=e1.emits,
            )
        )
    for e2 in edges2:
        shapes.append(
            EgressShape(
                dst=q1 + e2.dst,
                present=e2.event.present,
                absent=_dedup(trig1 + e2.event.absent),
                groups=2,
                saturable=(False, True),
                updates=tuple(v for v, _ in e2.updates),
                emits=e2.emits,
            )
        )
    return shapes


def actual_egress_shape(swa: Swa, state_name: str) -> list[EgressShape]:
    out = []
    for tr in swa.state(state_name).egress:
        out.append(
            EgressShape(
                dst=tr.dst,
                present=tr.event.present,
                absent=tr.event.absent,
                groups=len(tr.guard_groups),
                saturable=tr.saturable,
                updates=tuple(v for v, _ in tr.updates),
                emits=tr.emits,
            )
        )
    return out


# --- lock-step co-simulation ---------------------------------------------------


class CosimStuck(Exception):
    """Neither rule applies; carries the tick and the rows produced so far."""

    def __init__(self, tick: int, rows: list["CosimRow"]):
        self.tick = tick
        self.rows = rows
        super().__init__(f"stuck at tick {tick}")


@dataclass
class CosimRow:
    location: str
    values: dict[str, float]
    k: int
    emitted: frozenset[str]


def _event_enabled(event: EventExpr, visible: frozenset[str]) -> bool:
    for e in event.present:
        if e not in visible:
            return False
    for e in event.absent:
        if e in visible:
            return False
    return True


def _candidate(group: Constraint, var: str, cur: float, prev: float) -> float | None:
    """Snap value for one variable against one guard group, if any.

    Scanning the group's comparisons on this variable in order: holding
    ones need nothing, strict ones are never snapped onto, and the first
    failing non-strict one yields its bound when the trajectory crossed
    it between the previous and the current tick (otherwise no snap can
    help, so the scan stops).
    """
    for comp in group.conjuncts:
        if comp.variable != var:
            continue
        if comp.holds(cur):
            continue
        if comp.op in ("<", ">"):
            continue
        b = comp.bound_f
        if (prev <= b <= cur) or (cur <= b <= prev):
            return b
        return None
    return None


def _first_jump(swa: Swa, st: ExecState, visible: frozenset[str]):
    """First enabled egress of one component, or None.

    Same scan as the single-automaton stepper: snap at most one variable
    per guard group onto a crossed bound, then require every group to
    hold at the patched values.
    """
    state = swa.state(st.location)
    committed = st.v
    prev_vals = {
        var: (
            w.value_at_tick(resolve_c1(w, st.i[var]), st.k - 1, swa.delta_f)
            if st.k >= 1
            else committed[var]
        )
        for var, w in state.witnesses
    }
    for tr in state.egress:
        if not _event_enabled(tr.event, visible):
            continue
        patched = dict(committed)
        feasible = True
        for group, sat in zip(tr.guard_groups, tr.saturable):
            if not sat:
                continue
            snaps = {}
            for var in group.variables():
                c = _candidate(group, var, committed[var], prev_vals[var])
                if c is not None:
                    snaps[var] = c
            if len(snaps) > 1:
                feasible = False
                break
            patched.update(snaps)
        if not feasible or not all(g.holds(patched) for g in tr.guard_groups):
            continue
        post = dict(patched)
        for var, val in [(v, _eval_update(e, patched)) for v, e in tr.updates]:
            post[var] = val
        nxt = ExecState(
            location=tr.dst,
            v=post,
            i=post,
            k=0,
            pending_pre=frozenset(),
        )
        return nxt, frozenset(tr.emits)
    return None


def _can_evolve(swa: Swa, st: ExecState, visible: frozenset[str]) -> bool:
    selft = swa.state(st.location).self_transition
    return visible.isdisjoint(selft.absent) and selft.guard.holds(st.v)


def _evolved(swa: Swa, st: ExecState) -> ExecState:
    state = swa.state(st.location)
    k_new = st.k + 1
    new_v = {
        var: w.value_at_tick(resolve_c1(w, st.i[var]), k_new, swa.delta_f)
        for var, w in state.witnesses
    }
    return ExecState(
        location=st.location,
        v=new_v,
        i=st.i,
        k=k_new,
        pending_pre=frozenset(),
    )


def _frozen(st: ExecState) -> ExecState:
    return ExecState(
        location=st.location,
        v=st.v,
        i=st.v,
        k=0,
        pending_pre=frozenset(),
    )


def cosimulate(
    a: Swa, b: Swa, ticks: int, stimulus: dict[int, frozenset[str]] | None = None
) -> list[CosimRow]:
    """Run two automata side by side under shared one-tick-delayed events.

    Joint rules per tick, in priority order: both evolve; both jump; one
    jumps while the other freezes (its witness restarts from the held
    value); otherwise the pair is stuck.
    """
    stimulus = stimulus or {}
    known = frozenset(a.events()) | frozenset(b.events())
    sta, stb = initial_exec_state(a), initial_exec_state(b)
    pend: frozenset[str] = frozenset()
    rows: list[CosimRow] = []
    for t in range(ticks):
        visible = pend
        evolve_a = _can_evolve(a, sta, visible)
        evolve_b = _can_evolve(b, stb, visible)
        jump_a = _first_jump(a, sta, visible)
        jump_b = _first_jump(b, stb, visible)
        emitted: frozenset[str] = frozenset()
        if evolve_a and evolve_b:
            sta = _evolved(a, sta)
            stb = _evolved(b, stb)
        elif jump_a is not None and jump_b is not None:
            sta, ea = jump_a
            stb, eb = jump_b
            emitted = ea | eb
        elif jump_a is not None and evolve_b:
            sta, emitted = jump_a
            stb = _frozen(stb)
        elif evolve_a and jump_b is not None:
            stb, emitted = jump_b
            sta = _frozen(sta)
        else:
            raise CosimStuck(t, rows)
        rows.append(
            CosimRow(
                location=sta.location + stb.location,
                values={**sta.v, **stb.v},
                k=sta.k,
                emitted=emitted,
            )
        )
        supplied = stimulus.get(t)
        extra = (frozenset(supplied) & known) if supplied else frozenset()
        pend = extra | emitted
    return rows


# --- the product, stepped through its egress list -----------------------------


def product_tick(swa: Swa, st: ExecState, inputs: frozenset[str] = frozenset()):
    """One reaction of a product as its egress list defines it: evolve when
    every part can, else take the first enabled product transition."""
    visible = st.pending_pre
    if _can_evolve(swa, st, visible):
        return _evolved(swa, st).replace(pending_pre=inputs), frozenset()
    jump = _first_jump(swa, st, visible)
    if jump is None:
        raise UnreachableState(swa.name, st.location, st.v, st.k, visible)
    nxt, emitted = jump
    return nxt.replace(pending_pre=inputs | emitted), emitted


def product_run(swa: Swa, ticks: int, stimulus=None, out=None) -> ExecState:
    """`swa.run` on `product_tick`: the same trace rows and stuck report."""
    stimulus = stimulus or {}
    known = frozenset(swa.events())
    st = initial_exec_state(swa)
    if out is not None:
        out.write(trace_header(swa) + "\n")
    for t in range(ticks):
        inputs = frozenset(stimulus.get(t, ())) & known
        prev = st
        try:
            st, emitted = product_tick(swa, prev, inputs)
        except UnreachableState as exc:
            exc.tick = t
            raise
        if out is not None:
            observed = st.v if st.k == 0 else prev.v
            values = (observed[var] for var in swa.variables)
            out.write(format_trace_row(swa, t, st.location, values, prev.pending_pre, emitted) + "\n")
    return st


# --- trace handling ------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    tick: int
    time: float
    location: str
    values: tuple[float, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def parse_trace(text: str) -> tuple[list[str], list[TraceRow]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    n_vars = len(header) - 5
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            TraceRow(
                tick=int(parts[0]),
                time=float(parts[1]),
                location=parts[2],
                values=tuple(float(x) for x in parts[3 : 3 + n_vars]),
                inputs=tuple(e for e in parts[3 + n_vars].split(";") if e),
                outputs=tuple(e for e in parts[4 + n_vars].split(";") if e),
            )
        )
    return header, rows


# --- model fuzzing -------------------------------------------------------------

_RATES = ["0.3", "1", "2.5", "4", "10.3", "0.07"]
_DECAYS = ["0.05", "0.1", "0.25", "0.5"]


def fuzz_model(seed: int) -> str:
    """A random but well-formed cyclic model, deterministic per seed.

    Plain seeds alternate rising and falling ramps between two bounds
    with boundary-equality edges; every third seed instead pairs an
    asymptotic variable with a clock that forces periodic reset edges,
    so updates and multi-variable locations get exercised too.
    """
    rng = np.random.default_rng(seed)
    n_locs = int(rng.integers(2, 5))
    if seed % 3 == 2:
        return _fuzz_clocked(rng, seed, n_locs)
    bounds = sorted(round(float(x), 1) for x in rng.uniform(1, 99, 2))
    if bounds[1] - bounds[0] < 1:
        bounds[1] = bounds[0] + 1
    lo, hi = f"{bounds[0]:g}", f"{bounds[1]:g}"
    lines = [f"network fuzz{seed}", "", f"automaton f{seed}", f"  var x init {lo}", ""]
    for i in range(n_locs):
        rising = i % 2 == 0
        rate = _RATES[int(rng.integers(0, len(_RATES)))]
        decay = _DECAYS[int(rng.integers(0, len(_DECAYS)))]
        head = "initial location" if i == 0 else "location"
        lines.append(f"  {head} l{i}")
        lines.append(f"    invariant x >= {lo} && x <= {hi}")
        if rising:
            if int(rng.integers(0, 2)) == 0:
                lines.append(f"    flow x' = {rate}")
            else:
                eq = f"{bounds[1] + float(rng.integers(5, 60)):g}"
                lines.append(f"    flow x' = {decay} * ({eq} - x)")
        else:
            if int(rng.integers(0, 2)) == 0:
                lines.append(f"    flow x' = -{rate}")
            else:
                lines.append(f"    flow x' = -{decay} * x")
        lines.append("")
    for i in range(n_locs):
        rising = i % 2 == 0
        target = hi if rising else lo
        lines.append(f"  edge l{i} -> l{(i + 1) % n_locs} guard x == {target}")
    lines.append("")
    return "\n".join(lines)


def _fuzz_clocked(rng, seed: int, n_locs: int) -> str:
    period = f"{float(rng.integers(1, 9)) / 4:g}"
    start = f"{round(float(rng.uniform(2, 20)), 1):g}"
    lines = [
        f"network fuzz{seed}",
        "",
        f"automaton f{seed}",
        f"  var x init {start}",
        "  var c init 0",
        "",
    ]
    for i in range(n_locs):
        rising = i % 2 == 0
        decay = _DECAYS[int(rng.integers(0, len(_DECAYS)))]
        head = "initial location" if i == 0 else "location"
        lines.append(f"  {head} l{i}")
        if rising:
            # asymptotic climb: the equilibrium caps the invariant, so the
            # trajectory can never leave through the x bound mid-period
            eq = f"{round(float(rng.uniform(30, 90)), 1):g}"
            lines.append(f"    invariant x >= 0 && x <= {eq} && c >= 0 && c <= {period}")
            lines.append(f"    flow x' = {decay} * ({eq} - x)")
        else:
            lines.append(f"    invariant x >= 0 && c >= 0 && c <= {period}")
            lines.append(f"    flow x' = -{decay} * x")
        lines.append("    flow c' = 1")
        lines.append("")
    mid = f"{round(float(rng.uniform(5, 25)), 1):g}"
    for i in range(n_locs):
        lines.append(
            f"  edge l{i} -> l{(i + 1) % n_locs} guard c == {period} do c' := 0, x' := {mid}"
        )
    lines.append("")
    return "\n".join(lines)


def fuzz_network(seed: int) -> str:
    """A random event-linked network of 2 to 4 automata, deterministic per seed.

    Automaton i owns a level x<i> and sometimes a clock c<i>.  Its
    locations alternate rising and falling flows between two bounds.
    Each location leaves, in a random order, through a boundary-equality
    edge (the level snaps onto the bound), a clock edge whose guard
    ranges over both variables (at most one of them may snap), and one
    edge for each event the automaton listens to: the external GO and
    events the other automata emit.  Edges carry affine updates that
    stay inside the bounds.  Every location has an edge for every
    listened-to event, so most runs never get stuck.  An automaton that
    listens sometimes holds its level in one location (`x' = 0`); that
    location's event edges may loop back to it, always with the affine
    update, so the held value changes on a self-loop.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    lines = [f"network net{seed}", ""]
    for i in range(n):
        x, c = f"x{i}", f"c{i}"
        clocked = bool(rng.integers(0, 2))
        lo = round(float(rng.uniform(1, 20)), 1)
        hi = round(lo + float(rng.uniform(5, 30)), 1)
        mid = round((lo + hi) / 2, 1)
        period = f"{float(rng.integers(2, 9)) / 10:g}"
        others = [f"E{j}" for j in range(n) if j != i and rng.integers(0, 2)]
        listens = (["GO"] if rng.integers(0, 2) else []) + others[:1]
        n_locs = int(rng.integers(2, 4))
        held = int(rng.integers(0, n_locs)) if listens and rng.integers(0, 2) else -1
        loc = [f"{'fghj'[i]}{j}" for j in range(n_locs)]
        lines += [f"automaton q{i}", f"  var {x} init {lo:g}"]
        if clocked:
            lines.append(f"  var {c} init 0")
        if listens:
            lines.append("  input " + " ".join(listens))
        lines += [f"  output E{i}", ""]
        inv = f"{x} >= {lo:g} && {x} <= {hi:g}"
        reset = f", {c}' := 0" if clocked else ""
        edges = []
        for j in range(n_locs):
            rising = j % 2 == 0
            lines.append(f"  {'initial location' if j == 0 else 'location'} {loc[j]}")
            lines.append(f"    invariant {inv}" + (f" && {c} >= 0 && {c} <= {period}" if clocked else ""))
            rate = _RATES[int(rng.integers(0, len(_RATES)))]
            decay = _DECAYS[int(rng.integers(0, len(_DECAYS)))]
            if j == held:
                lines.append(f"    flow {x}' = 0")
            elif rng.integers(0, 2):
                lines.append(f"    flow {x}' = {'' if rising else '-'}{float(rate) * 6:g}")
            elif rising:
                lines.append(f"    flow {x}' = {float(decay) * 8:g} * ({hi + float(rng.integers(5, 30)):g} - {x})")
            else:
                lines.append(f"    flow {x}' = -{float(decay) * 8:g} * {x}")
            if clocked:
                lines.append(f"    flow {c}' = 1")
            lines.append("")
            # every edge resets the clock, so no location is entered past its period
            plain = f" do {c}' := 0" if clocked else ""
            bound = f"edge {loc[j]} -> {loc[(j + 1) % n_locs]} guard {x} == {hi if rising else lo:g}"
            bound += f" do {x}' := {mid:g}{reset}" if rng.integers(0, 3) == 0 else plain
            own = [bound + (f" emit E{i}" if rng.integers(0, 3) else "")]
            if clocked:
                own.append(
                    f"edge {loc[j]} -> {loc[int(rng.integers(0, n_locs))]} guard {inv} && {c} == {period}"
                    f" do {c}' := 0" + (f" emit E{i}" if rng.integers(0, 2) else "")
                )
            for k, ev in enumerate(listens):
                trigger = ev
                if k == 0 and len(listens) > 1 and rng.integers(0, 3) == 0:
                    trigger += f" && !{listens[1]}"
                # 0.5 * x + b maps [lo, hi] into itself for lo/2 <= b <= hi/2
                b = round(float(rng.uniform(lo / 2, hi / 2)), 1)
                scaled = f" do {x}' := 0.5 * {x} + {b:g}{reset}"
                if j == held and rng.integers(0, 2):
                    dst, update = j, scaled
                else:
                    dst = int(rng.integers(0, n_locs))
                    update = scaled if rng.integers(0, 2) else plain
                own.append(f"edge {loc[j]} -> {loc[dst]} on {trigger} guard {inv}" + update)
            edges += [own[k] for k in rng.permutation(len(own))]
        lines += ["  " + e for e in edges] + [""]
    return "\n".join(lines)


def timer_chain_source(n: int) -> str:
    """n two-location timers; each starts when the previous one finishes.

    The product has 2**n states.  Timer 0 restarts every 0.5 s; timer i
    runs for 0.2 s after timer i-1 finishes.
    """
    lines = ["network chain", ""]
    for i in range(n):
        x = f"x{i}"
        lines += [f"automaton t{i}", f"  var {x} init 0"]
        if i:
            lines.append(f"  input E{i - 1}")
        lines += [f"  output E{i}", "", f"  initial location a{i}"]
        if i:
            lines += [f"    invariant {x} >= 0 && {x} <= 0", f"    flow {x}' = 0", ""]
        else:
            lines += [f"    invariant {x} >= 0 && {x} <= 0.3", f"    flow {x}' = 1", ""]
        lines += [f"  location b{i}", f"    invariant {x} >= 0 && {x} <= 0.2", f"    flow {x}' = 1", ""]
        if i:
            lines.append(f"  edge a{i} -> b{i} on E{i - 1}")
        else:
            lines.append(f"  edge a{i} -> b{i} guard {x} == 0.3 do {x}' := 0")
        lines += [f"  edge b{i} -> a{i} guard {x} == 0.2 do {x}' := 0 emit E{i}", ""]
    return "\n".join(lines)


# --- recurrences, and the specialised runner read from its frame -------------


def first_recurrence(product: Swa, ticks: int) -> tuple[int, int] | None:
    """The first switch tick whose configuration an earlier one had, and the ticks between the two.

    A switch tick's configuration is the product state, the bit patterns of
    the values and the events pending after it.  The generic engine steps
    `ticks` ticks with no stimulus; None if no configuration recurs.
    """
    st, seen = initial_exec_state(product), {}
    for t in range(ticks):
        st, _ = generic_tick(product, st)
        if st.k == 0:
            config = (st.location, *(st.v[var].hex() for var in product.variables), st.pending_pre)
            if (first := seen.setdefault(config, t)) != t:
                return t, t - first
    return None


class Inline:
    """A run of the specialised engine read from its runner's frame with `sys.settrace`.

    ``state`` is the final state, ``memo`` the horizon memo the run ended with,
    ``cycles`` every cycle jump that moved as (tick, tick landed on), ``seen`` the memo
    of switch configurations the run ended with, ``far`` the distance to the next
    stimulus beyond which a switch tick looks its configuration up, as the run ended,
    and ``stepped`` counts the ticks the runner's loop ran.  With ``traced`` the run
    writes its trace to ``trace``.  Both runners jump a stretch only by a `_Jump` call,
    which the tests' ``jumps`` fixture records.
    """

    def __init__(self, product: Swa, ticks: int, stimulus=None, traced: bool = False):
        source = _runner_source(product, traced).splitlines()
        cycle = source.index("                elif len(_seen) < _room:")  # the hit's last line, from 1
        loop = source.index("        vis = _pend") + 1
        self.memo = self.seen = self.far = None
        self.cycles, self.stepped = [], 0
        before = []  # the tick a cycle jump starts from, until the next event shows where it landed

        def local(frame, event, arg):
            f = frame.f_locals
            if before and before[-1] != f["_t"]:
                self.cycles.append((before[-1], f["_t"]))
            before[:] = []
            if event == "line" and frame.f_lineno == loop:
                self.stepped += 1
            elif event == "line" and frame.f_lineno == cycle:
                before.append(f["_t"])
            elif event == "return":
                self.memo, self.seen, self.far = dict(f["_hm"]), dict(f["_seen"]), f["_far"]
            return local

        out = io.StringIO() if traced else None
        old = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code.co_name == "_swarun" else None)
        try:
            self.state = simulate(product, ticks, stimulus, out=out)
        finally:
            sys.settrace(old)
        self.trace = out and out.getvalue()
