"""Tick-synchronous execution of analysed automata.

`build_swa` lowers an analysed automaton into an executable form where
every location carries its witness functions, a self transition (the
evolution step) and an ordered list of egress transitions.  `tick`
advances one reaction:

* the value computed on the previous tick is committed,
* if the invariant holds at the committed values and no trigger event is
  visible, the step counter advances and the witnesses produce the next
  values,
* otherwise the egress transitions are scanned in declaration order and
  the first enabled one fires: equality and non-strict bounds that the
  trajectory crossed since the previous tick snap the crossing variable
  exactly onto the bound, jump updates are applied simultaneously, the
  step counter resets, and the transition's events are emitted,
* if neither applies the configuration is stuck and `UnreachableState`
  is raised.

Events travel with one tick of latency: everything emitted or supplied
at tick t is visible during tick t+1 and never during tick t itself.

`compose_all` makes a network of executable automata: it checks them
against each other and records them as its ``parts``, in O(total
locations).  Its states, the synchronous product, are a lazy sequence:
`product_state` builds one from a pair, and state j folds it over the
parts' locations at j's mixed-radix digits.  While one side switches
and the other evolves, the evolving side is frozen for that tick (its
values re-enter as fresh initial values), so a product tick never
interleaves a half-step with a jump.

`switch_plan` states the tick rule once, for each location of each
part: its evolve test (trigger silence and the invariant, which is
also the test for freezing), its witnesses, the variables whose
previous value snapping reads, and each edge's event masks, snap
candidates, guard, updates (simultaneous, on the snapped values),
destination and emitted events.  A product state evolves exactly when
every part's location passes its evolve test; that is the conjunction
`product_state` builds.  Guards and
updates never read another automaton's variables, so each part taking
its own first enabled edge, or else being frozen, is the transition the
product's egress order (joint switches first) picks.  No engine builds or reads a product
state; only the product oracle in the tests does.  The generic engine
interprets the plan: `_step` states the tick rule once, on a `_Config`
(the product state index and its locations, the values, each variable's
entry constant, worked out when its location is entered, the step index
and the pending events' mask), which it changes in place.  `run`
carries one configuration through a whole run, and `tick` makes one from
an `ExecState`, steps it and returns the next `ExecState`.  One printer
(`evolve_code` or `evolve_tests`, `step_code` and `switch_code`) prints
it as source text, spelt by a `Syntax`: as
Python for the specialising engine (`PYTHON`), and as C for `codegen`.
Both keep the visible and emitted events as bits of two masks, and both
name what the model names by one rule, `ident`: ``<role>_<name>``, so
no model name can meet a name of the language, its library or the
printed code.  A part re-enters its new location once, after its switch
code, by one line per variable chosen by its new location index.  The
specialised engine writes its own trace rows; a value the state holds
constant is a repeated value and is formatted like any other.

The specialised engine fast-forwards evolve stretches.  Evolve ticks
emit nothing and every value is its witness at the step index, so once
a stretch has reached step `_JUMP_AFTER` the runner asks
`evolve_horizon`, once per part, for the first step at which the
part's invariant fails, and jumps straight to the tick before it.  A
memo that lives for one run keeps that step for each product state
and set of entry constants, and a stretch the memo knows jumps from
step 1.  Both runners ask by this one rule.  The jump stops early at
the last tick of the run and at the next stimulus tick, after which
the runner asks again.  `evolve_horizon` confirms its answer with the
engines' own float expression; its docstring argues why no earlier
step can fail.
Both runners also jump whole periods: a switch tick more than
`_JUMP_AFTER` ticks before the next stimulus whose configuration
(stimuli consumed, product state, events emitted and the values' bit
patterns) the run has seen before skips every repeat up to the next
stimulus or the end of the run.  A traced run first steps one more
period and keeps its rows, then writes them again for every period it
skips, each with its own tick and time; `_runner_source` argues why
both are exact.  A traced run writes the rows it jumps over in
batches, from value texts it formats once per run.  The generic engine steps tick by tick.
Both Python engines read the stimulus as sorted arrays of ticks and
event masks (`stimulus_arrays`).
A stuck run raises `UnreachableState`, whose text is the C driver's
report.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, cycle, repeat
from typing import Callable, Iterable, Mapping, TextIO

from .expr import COMPARE, AffineExpr, Comparison, Constraint, Rational, Record
from .model import EventExpr, HybridAutomaton
from .odesolve import WitnessFunction, WitnessKind, resolve_c1
from .shagen import Sha, generate_sha
from .whacheck import foreign_reads


class UnreachableState(Exception):
    """The configuration can neither evolve nor take any transition.

    ``visible`` lists the visible events in the automaton's declaration
    order.  The text is the C driver's report, line for line: the tick,
    the state and the step index, each committed value as ``%.17g``,
    then one line per visible event.
    """

    def __init__(
        self,
        automaton: str,
        state: str,
        valuation: Mapping[str, float],
        k: int,
        visible: Iterable[str],
        tick: int | None = None,
    ):
        self.automaton = automaton
        self.state = state
        self.valuation = dict(valuation)
        self.k = k
        self.shown = tuple(visible)
        self.visible = frozenset(self.shown)
        self.tick = tick
        super().__init__()

    def __str__(self) -> str:
        at = f" at tick {self.tick}" if self.tick is not None else ""
        lines = [f"stuck{at} in state {self.state}: no evolution step and no enabled "
                 f"transition (k = {self.k})"]
        lines += [f"  {v} = %.17g" % x for v, x in self.valuation.items()]
        lines += [f"  visible: {e}" for e in self.shown]
        return "\n".join(lines)


class SelfTransition(Record):
    """Condition for taking one evolution step and staying put."""

    __slots__ = ("guard", "absent")

    def __init__(
        self, guard: Constraint,  # the state's invariant (conjoined across products)
        absent: tuple[str, ...],  # every trigger event must be silent
    ) -> None:
        self._set(guard, absent)


class SwaTransition(Record):
    """One egress transition.

    The guard is kept as ordered groups, one per constituent automaton.
    Value snapping may alter at most one variable per group, and only in
    groups marked saturable (a frozen side's invariant is checked as-is).
    """

    __slots__ = ("dst", "event", "guard_groups", "saturable", "updates", "emits")

    def __init__(
        self, dst: str, event: EventExpr, guard_groups: tuple[Constraint, ...], saturable: tuple[bool, ...],
        updates: tuple[tuple[str, AffineExpr], ...] = (), emits: tuple[str, ...] = (),
    ) -> None:
        self._set(dst, event, guard_groups, saturable, updates, emits)


class SwaState(Record):
    __slots__ = ("name", "self_transition", "witnesses", "egress", "nsteps")

    def __init__(
        self, name: str, self_transition: SelfTransition, witnesses: tuple[tuple[str, WitnessFunction], ...],
        egress: tuple[SwaTransition, ...],
        nsteps: int | None,  # bound on consecutive evolution steps, None if unbounded
    ) -> None:
        self._set(name, self_transition, witnesses, egress, nsteps)

    def witness_for(self, variable: str) -> WitnessFunction:
        for var, w in self.witnesses:
            if var == variable:
                return w
        raise KeyError(f"state {self.name} has no witness for {variable!r}")


@dataclass(frozen=True)
class Swa:
    """An executable tick-synchronous automaton.

    A network records the automata it was built from, in composition
    order, as ``parts``; its states are their row-major product, a
    `ProductStates` that builds each one when it is read.  A lowered
    automaton has no parts and is its own single part.

    The one dataclass among syncha's records: ``perfbench/selftest.py``
    calls ``dataclasses.replace`` on a network.
    """

    name: str
    variables: tuple[str, ...]
    init_values: tuple[tuple[str, Rational], ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: Sequence[SwaState]
    initial_state: str
    delta: Fraction
    parts: tuple[Swa, ...] = field(default=(), repr=False)
    delta_f: float = field(init=False, repr=False, compare=False)
    _by_name: dict | None = field(init=False, repr=False, compare=False, default=None)
    _hash: int | None = field(init=False, repr=False, compare=False, default=None)
    _plan: SwitchPlan | None = field(init=False, repr=False, compare=False, default=None)
    _runners: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_f", float(self.delta))
        object.__setattr__(self, "_runners", {})

    def __hash__(self) -> int:
        # Structural hashing walks every state and transition, so it is
        # done once.  A product's states follow from its parts, which are
        # far smaller; hashing those in their place stays consistent
        # with ==, since equal products have equal parts.
        if self._hash is None:
            key = (self.name, self.variables, self.init_values, self.inputs, self.outputs,
                   self.initial_state, self.delta, self.parts or self.states)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def state(self, name: str) -> SwaState:
        """The state called `name`; a network builds it when it is first asked for."""
        if self._by_name is None:
            object.__setattr__(self, "_by_name", {} if self.parts else {s.name: s for s in self.states})
        try:
            if name not in self._by_name and self.parts:
                self._by_name[name] = self.states[switch_plan(self).index[name]]
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"automaton {self.name} has no state {name!r}") from None

    def events(self) -> tuple[str, ...]:
        return _dedup(self.inputs + self.outputs)


class ExecState(Record):
    """A runtime configuration between two ticks.

    ``v`` holds the values the next tick will commit (for a step index k
    they are the witness values at k), ``i`` the values the state was
    entered with, and ``pending_pre`` the events that will be visible on
    the next tick.
    """

    __slots__ = ("location", "v", "i", "k", "pending_pre")

    def __init__(
        self, location: str, v: Mapping[str, float], i: Mapping[str, float], k: int,
        pending_pre: frozenset[str] = frozenset(),
    ) -> None:
        self._set(location, v, i, k, pending_pre)


def _dedup(items: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(items))


# --- lowering -----------------------------------------------------------------


def build_swa(sha: Sha) -> Swa:
    """Lower an analysed automaton into its executable form.

    The automaton must be self-contained: invariants, guards and update
    expressions may only mention its own variables (`foreign_reads`;
    compose executable automata to let one react to another's events).
    """
    ha = sha.base
    foreign = foreign_reads(ha)
    if foreign:
        raise ValueError(f"automaton {ha.name} reads variables it does not own: " + "; ".join(map(str, foreign)))
    triggers = ha.trigger_events()
    states = []
    for loc in ha.locations:
        analysis = sha.analysis(loc.name)
        egress = tuple(
            SwaTransition(
                dst=e.dst,
                event=e.event,
                guard_groups=(e.guard,),
                saturable=(True,),
                updates=e.updates,
                emits=e.emits,
            )
            for e in ha.edges_from(loc.name)
        )
        states.append(
            SwaState(
                name=loc.name,
                self_transition=SelfTransition(loc.invariant, triggers),
                witnesses=analysis.witnesses,
                egress=egress,
                nsteps=analysis.nsteps,
            )
        )
    return Swa(
        name=ha.name,
        variables=ha.variables,
        init_values=ha.init_values,
        inputs=ha.inputs,
        outputs=ha.outputs,
        states=tuple(states),
        initial_state=ha.initial_location,
        delta=sha.delta,
    )


def compile_automaton(ha: HybridAutomaton, delta: Fraction) -> tuple[Swa, list[str]]:
    """One-shot analysis plus lowering.  Returns the automaton and warnings."""
    sha, warnings = generate_sha(ha, delta)
    return build_swa(sha), warnings


def initial_exec_state(swa: Swa) -> ExecState:
    v = {var: float(val) for var, val in swa.init_values}
    return ExecState(location=swa.initial_state, v=v, i=v, k=0)


# --- one reaction -------------------------------------------------------------


class EdgePlan(Record):
    """One edge of a location, as a switch tick tests and takes it."""

    __slots__ = ("present", "absent", "snaps", "guard", "updates", "dst", "emits")

    def __init__(
        self, present: int,  # event mask that must be visible
        absent: int,  # event mask that must be silent
        snaps: tuple[tuple[str, tuple[Comparison, ...]], ...],  # each variable's non-strict comparisons
        guard: Constraint,
        updates: tuple[tuple[str, AffineExpr], ...],  # staged: every one reads the snapped values
        dst: int,  # destination location index
        emits: int,  # event mask
    ) -> None:
        self._set(present, absent, snaps, guard, updates, dst, emits)

    @property
    def exclusive(self) -> bool:  # the guard must check that at most one variable snapped
        return len(self.snaps) > 1


class LocationPlan(Record):
    """What one automaton does on a tick while it is in one location.

    ``bounded`` lists each variable the invariant mentions, with its
    witness and its comparisons.  The comparisons are ``(test, bound)``
    pairs: all of them, those a rising value can come to fail, and
    those a falling value can.
    """

    __slots__ = ("name", "invariant", "triggers", "witnesses", "prev", "edges", "bounded")

    def __init__(
        self, name: str,
        invariant: Constraint,  # with `triggers` silent: the part may evolve, or be frozen
        triggers: int, witnesses: tuple[tuple[str, WitnessFunction], ...],
        prev: tuple[tuple[str, WitnessFunction], ...],  # previous-tick values that snapping reads
        edges: tuple[EdgePlan, ...],  # declaration order
    ) -> None:
        flows, bounded = dict(witnesses), []
        for var in invariant.variables():
            comps = [(c.op, (COMPARE[c.op], c.bound_f)) for c in invariant.conjuncts if c.variable == var]
            bounded.append((var, flows[var], tuple(test for _, test in comps),
                            tuple(test for op, test in comps if op in ("<", "<=", "==")),
                            tuple(test for op, test in comps if op in (">", ">=", "=="))))
        self._set(name, invariant, triggers, witnesses, prev, edges, tuple(bounded))


class _StateIndex(dict):
    """Product state name -> index: the names `SwitchPlan.name` gave, and others once parsed over the parts."""

    def __init__(self, names: list[list[str]], strides: tuple[int, ...]):
        super().__init__()
        self.names, self.strides = names, strides

    def __missing__(self, name: str) -> int:
        digits = parse_name(self.names, name)
        if digits is None:
            raise KeyError(f"no product state {name!r}")
        self[name] = j = sum(map(int.__mul__, digits, self.strides))
        return j


class SwitchPlan(Record):
    """The location plans of a network's parts, and how they index its states.

    A product state's index is mixed-radix over its parts' location
    indices, row-major in composition order, with weights ``strides``;
    ``start`` is the initial state's.  `at` gives state j's locations and
    `name` its name, both memoised; `name` also records j in ``index``.
    Bit i of every event mask is ``events[i]``.
    """

    __slots__ = ("events", "parts", "strides", "start", "index", "at", "name")

    def __init__(
        self, events: tuple[str, ...], parts: tuple[tuple[LocationPlan, ...], ...], strides: tuple[int, ...],
        start: int,
    ) -> None:
        # The closures below hold the fields, not self: a cycle would outlive the last reference.
        index = _StateIndex([[loc.name for loc in locs] for locs in parts], strides)
        at = lru_cache(maxsize=None)(
            lambda j: tuple(locs[j // stride % len(locs)] for locs, stride in zip(parts, strides)))

        def name(j: int) -> str:
            text = "".join(loc.name for loc in at(j))
            index[text] = j
            return text
        self._set(events, parts, strides, start, index, at, lru_cache(maxsize=None)(name))

    def mask(self, names: Iterable[str]) -> int:
        return sum({1 << self.events.index(e) for e in names})

    def events_in(self, m: int) -> tuple[str, ...]:
        """The events of mask `m`, in bit order."""
        return tuple(e for b, e in enumerate(self.events) if m >> b & 1)


def switch_plan(swa: Swa) -> SwitchPlan:
    """The plan of an automaton or a network, built from its parts.

    A product state evolves when every part's location has its triggers
    silent and its invariant holding; each part's witnesses then step.
    Only non-strict comparisons can snap, so only their variables need a
    previous-tick value.  Every part that switches re-enters the location
    it ends the tick in, jumped to or frozen in, at the values it leaves
    the tick with, so no edge carries witnesses.  The plan is memoised on
    `swa`: a cache keyed by an equal but distinct Swa would compare every
    state on each tick.
    """
    if swa._plan is None:
        object.__setattr__(swa, "_plan", _build_plan(swa))
    return swa._plan


def _build_plan(swa: Swa) -> SwitchPlan:
    parts = swa.parts or (swa,)
    sizes = [len(part.states) for part in parts]
    strides = tuple(math.prod(sizes[p + 1:]) for p in range(len(parts)))
    start = sum(stride * [s.name for s in part.states].index(part.initial_state)
                for part, stride in zip(parts, strides))
    plan = SwitchPlan(swa.events(), (), strides, start)
    return plan.replace(parts=tuple(_location_plans(part, plan.mask) for part in parts))


def _location_plans(part: Swa, mask: Callable[[Iterable[str]], int]) -> tuple[LocationPlan, ...]:
    index = {s.name: j for j, s in enumerate(part.states)}
    plans = []
    for s in part.states:
        edges = []
        for tr in s.egress:
            if mask(tr.event.present) & mask(tr.event.absent):
                continue  # an event both visible and silent: never enabled
            (guard,) = tr.guard_groups  # a lowered automaton: one group, which may snap
            snaps: dict[str, tuple[Comparison, ...]] = {}
            for c in guard.conjuncts:
                if c.op not in ("<", ">"):
                    snaps[c.variable] = snaps.get(c.variable, ()) + (c,)
            edges.append(EdgePlan(mask(tr.event.present), mask(tr.event.absent), tuple(snaps.items()), guard,
                                  tr.updates, index[tr.dst], mask(tr.emits)))
        prev = _dedup(var for e in edges for var, _ in e.snaps)
        plans.append(LocationPlan(
            s.name, s.self_transition.guard, mask(s.self_transition.absent), s.witnesses,
            tuple((var, s.witness_for(var)) for var in prev), tuple(edges),
        ))
    return tuple(plans)


# An exponential witness is only trusted while its exponent a*delta*k stays
# within +-700, where exp gives a normal, finite double, and while the
# exponent grows by at least 2**-30 per step.  No run reaches step 2**50.
_EXP_ARG = 700.0
_EXP_MIN_RATE = 2.0**-30
_FAR = 2**50


def evolve_horizon(loc: LocationPlan, c1: Mapping[str, float], k: int, delta_f: float) -> float:
    """The first step K >= k at which `loc`'s invariant fails on its witnesses.

    The witnesses are entered with the constants `c1` and evaluated as
    every engine evaluates them (`WitnessFunction.value_at_tick`).  Only
    ask from k >= 1: step 0 holds the raw entry value, not the witness
    at 0.  Returns math.inf when no step fails, and k when the answer
    cannot be confirmed (the caller then steps).  An exponential
    vouches only for the steps whose exponent stays within +-700; if
    none of those fails, the answer is the first step past them.
    Trigger events are the caller's concern.

    Why the answer is exact.  Write F(j) for the float value at step j.
    Rounding is monotone, so j -> fl(r*j) is monotone for a rate r, and
    so is fl(c1 + fl(r*j)): a linear F is monotone in j.  An exponential
    F is fl(x_eq + fl(c1 * exp(fl(r*j)))), a monotone function of the
    computed exp.  Consecutive exponents differ by at least |r|/2 >=
    2**-31 below step 2**50, while libm's exp is within 2**-40 relative
    of e**x whenever that is a normal double (glibc's is within one
    ulp); so the computed exp, and with it F, is monotone in j too.  A
    comparison of a monotone F with a bound, true at step k, therefore
    fails from some step on or never.  That step is found by bisection
    on the float test itself, starting from the exact crossing (a
    division for a linear witness, a logarithm for an exponential), so
    no step before the answer can fail.  Values creeping along a bound
    take more bisection steps, not a different argument.  An exponent
    that grows too slowly, or has left +-700, gets no answer (k).
    """
    first = math.inf
    for var, w, every, rising, falling in loc.bounded:
        first = _first_failure(w, every, rising, falling, c1[var], k, delta_f, first)
        if first == k:
            break
    return first


def _first_failure(w: WitnessFunction, every: tuple, rising: tuple, falling: tuple, c1: float,
                   k: int, delta_f: float, limit: float) -> float:
    """`evolve_horizon` for one variable, or `limit` if that comes first.

    `every`, `rising` and `falling` are `LocationPlan.bounded`'s tests.
    """
    if w.kind is WitnessKind.EXPONENTIAL:
        rate = w.a_f * delta_f
        end = min(_FAR, int(_EXP_ARG / abs(rate))) if abs(rate) >= _EXP_MIN_RATE else 0
        if k > end:
            return k
        after = end + 1  # nothing is claimed past `end`
        up, still = (rate > 0) == (c1 > 0), c1 == 0
    else:
        rate = w.b_f * delta_f
        end, after = _FAR, math.inf
        up, still = rate > 0, rate == 0
    value = w.value_at_tick
    x = value(c1, k, delta_f)
    for holds, b in every:
        if not holds(x, b):
            return k
    # F is monotone on [k, end], so only the comparisons it moves toward can fail
    tests = rising if up else falling
    if still or not tests:
        return min(after, limit)
    m = math.inf  # the exact crossing: a division, or a logarithm for an exponential
    for _, b in tests:
        if w.kind is WitnessKind.LINEAR:
            m = min(m, (b - c1) / rate)
        elif (q := (b - w.x_eq_f) / c1) > 0:
            m = min(m, math.log(q) / rate)

    def fails(j: int) -> bool:
        x = value(c1, j, delta_f)
        for holds, b in tests:
            if not holds(x, b):
                return True
        return False

    near = int(m) if k < m < end else k
    lo, hi = k, min(end + 1, limit)  # F(lo) passes; F fails from hi on, or hi is not needed
    for j in (near, near + 1):
        if lo < j < hi:
            if fails(j):
                hi = j
            else:
                lo = j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return hi if hi <= end else after


def _eval_update(expr: AffineExpr, valuation: Mapping[str, float]) -> float:
    if expr.a == 0:
        return expr.b_f
    val = valuation[expr.variable]
    if expr.a == 1:
        term = val
    elif expr.a == -1:
        term = -val
    else:
        term = expr.a_f * val
    if expr.b == 0:
        return term
    return term + expr.b_f


def _take_edge(loc: LocationPlan, v: Mapping[str, float], c1: Mapping[str, float], k: int, vis: int,
               delta_f: float) -> tuple[EdgePlan, list[tuple[str, float]]] | None:
    """`loc`'s first enabled edge at the values `v` and step k, and what it writes: snapped values, then updates.

    A value the previous tick committed is its witness at step k - 1 from
    its entry constant in `c1`, or the value itself at step 0.
    """
    prev = {var: w.value_at_tick(c1[var], k - 1, delta_f) if k >= 1 else v[var] for var, w in loc.prev}
    for e in loc.edges:
        if vis & e.present != e.present or vis & e.absent:
            continue
        snapped = {}
        for var, comps in e.snaps:
            # the first failing bound, if the value crossed it since the last tick
            cur, before = v[var], prev[var]
            b = next((c.bound_f for c in comps if not c.holds(cur)), None)
            if b is not None and (before <= b <= cur or cur <= b <= before):
                snapped[var] = b
        if len(snapped) > 1:
            continue
        patched = {**v, **snapped} if snapped else v
        if not e.guard.holds(patched):
            continue
        return e, [*snapped.items(), *((var, _eval_update(expr, patched)) for var, expr in e.updates)]
    return None


def _can_evolve(loc: LocationPlan, v: Mapping[str, float], vis: int) -> bool:
    """Whether `loc`'s triggers are silent in the event mask `vis` and its invariant holds at `v`."""
    if vis & loc.triggers:
        return False
    for var, _, every, _, _ in loc.bounded:
        x = v[var]
        for holds, b in every:
            if not holds(x, b):
                return False
    return True


class _Config:
    """A configuration between two ticks, which `_step` changes in place for a whole run.

    ``j`` is the product state and ``here`` its locations (`SwitchPlan.at`).
    ``v`` holds the values the next tick commits, ``i`` the values the
    state was entered with and ``c1`` each variable's entry constant, which
    its location works out once, on entry.  ``k`` is the step index and
    ``pend`` the mask of the events the next tick sees.
    """

    __slots__ = ("j", "here", "v", "i", "c1", "k", "pend")

    def __init__(self, plan: SwitchPlan, st: ExecState) -> None:
        pend = plan.mask(st.pending_pre.intersection(plan.events)) if st.pending_pre else 0
        self.v, self.i, self.c1, self.k, self.pend = dict(st.v), {}, {}, st.k, pend
        self.enter(plan, plan.index[st.location], st.i)

    def enter(self, plan: SwitchPlan, j: int, values: Mapping[str, float]) -> None:
        """Enter state j at `values`."""
        self.j = j
        self.here = plan.at(j)
        i, c1 = self.i, self.c1
        for loc in self.here:
            for var, w in loc.witnesses:
                i[var] = x = values[var]
                c1[var] = resolve_c1(w, x)


def _step(plan: SwitchPlan, cf: _Config, inputs: int, delta_f: float) -> int | None:
    """One reaction of `cf`, in place: the generic engine's tick rule, stated once.

    When every part's location can evolve, the step index advances and
    each witness gives its value at it.  Otherwise each part takes its
    location's first enabled edge, or must be able to evolve and is
    frozen; every part then re-enters the location it is in at the values
    it leaves the tick with.  The event mask `inputs` and the events
    emitted become visible on the next tick.  Returns the mask of the
    events emitted, or None, with `cf` unchanged, when the configuration
    is stuck.
    """
    vis, here, v = cf.pend, cf.here, cf.v
    for loc in here:
        if not _can_evolve(loc, v, vis):
            break
    else:
        cf.k = k = cf.k + 1
        c1 = cf.c1
        for loc in here:
            for var, w in loc.witnesses:
                v[var] = w.value_at_tick(c1[var], k, delta_f)
        cf.pend = inputs
        return 0

    # The committed values stay in `v` until every part has decided, for the stuck report.
    j, emits, writes = cf.j, 0, []
    for loc, locations, stride in zip(here, plan.parts, plan.strides):
        taken = _take_edge(loc, v, cf.c1, cf.k, vis, delta_f)
        if taken is not None:
            edge, values = taken
            j += (edge.dst - cf.j // stride % len(locations)) * stride
            emits |= edge.emits
            writes += values
        elif not _can_evolve(loc, v, vis):
            return None
    v.update(writes)
    cf.enter(plan, j, v)
    cf.k, cf.pend = 0, inputs | emits
    return emits


def _stuck(swa: Swa, plan: SwitchPlan, j: int, values: Iterable[float], k: int, vis: int,
           t: int | None) -> UnreachableState:
    """The report of a run stuck in state j at tick t, with `values` in variable order and events `vis` visible."""
    return UnreachableState(swa.name, plan.name(j), dict(zip(swa.variables, values)), k, plan.events_in(vis), t)


def tick(
    swa: Swa, st: ExecState, inputs: frozenset[str] = frozenset()
) -> tuple[ExecState, frozenset[str]]:
    """Advance one reaction: `_step` on a configuration made from `st`.

    ``inputs`` are the externally supplied events of this tick; they
    become visible on the next tick.  Returns the next configuration and
    the events emitted during this tick.  Raises UnreachableState when
    the configuration is stuck.
    """
    plan = switch_plan(swa)
    cf = _Config(plan, st)
    emits = _step(plan, cf, 0, swa.delta_f)
    if emits is None:
        raise _stuck(swa, plan, cf.j, map(cf.v.__getitem__, swa.variables), cf.k, cf.pend, None)
    if cf.k:
        return ExecState(st.location, cf.v, st.i, cf.k, inputs), frozenset()
    emitted = frozenset(plan.events_in(emits))
    return ExecState(plan.name(cf.j), cf.v, cf.v, 0, inputs | emitted), emitted


# --- parallel composition -----------------------------------------------------


def _frozen(s: SwaState) -> SwaTransition:
    """A side staying in `s` while the other switches: its invariant, checked as-is, and its triggers silent."""
    return SwaTransition(s.name, EventExpr((), s.self_transition.absent), (s.self_transition.guard,), (False,))


def product_state(s1: SwaState, s2: SwaState) -> SwaState:
    """The product of two states, one of each side.

    Product transitions are scanned joint switches first (both sides
    take an edge on the same tick), then left-side switches (the right
    side is frozen for the tick), then right-side switches.  A frozen
    side contributes its invariant as a non-snapping guard group plus
    the silence of all its trigger events.
    """
    pairs = [(e1, e2) for e1 in s1.egress for e2 in s2.egress]
    pairs += [(e1, _frozen(s2)) for e1 in s1.egress] + [(_frozen(s1), e2) for e2 in s2.egress]
    egress = tuple(
        SwaTransition(
            e1.dst + e2.dst,
            EventExpr(_dedup(e1.event.present + e2.event.present), _dedup(e1.event.absent + e2.event.absent)),
            e1.guard_groups + e2.guard_groups, e1.saturable + e2.saturable, e1.updates + e2.updates,
            e1.emits + e2.emits,
        )
        for e1, e2 in pairs
    )
    self_t = SelfTransition(s1.self_transition.guard.conjoin(s2.self_transition.guard),
                            _dedup(s1.self_transition.absent + s2.self_transition.absent))
    nsteps = min((n for n in (s1.nsteps, s2.nsteps) if n is not None), default=None)
    return SwaState(s1.name + s2.name, self_t, s1.witnesses + s2.witnesses, egress, nsteps)


class ProductStates(Record, Sequence):
    """A network's states, row-major over its parts, each built when it is read.

    State j folds `product_state` from the left over its parts'
    locations at j's mixed-radix digits, which gives the state that
    composing the parts pairwise from the left would.  Equality goes by
    the parts, which are all the sequence holds; concatenation and
    slices give tuples.
    """

    __slots__ = ("parts",)
    __repr__ = object.__repr__

    def __init__(self, parts: tuple[Swa, ...]) -> None:
        self._set(parts)

    def __len__(self) -> int:
        return math.prod(len(part.states) for part in self.parts)

    def __getitem__(self, j):
        js = range(len(self))[j]
        return tuple(map(self._state, js)) if isinstance(js, range) else self._state(js)

    def __add__(self, other) -> tuple[SwaState, ...]:
        return tuple(self) + tuple(other)

    def _state(self, j: int) -> SwaState:
        states = []
        for part in reversed(self.parts):
            j, d = divmod(j, len(part.states))
            states.append(part.states[d])
        return reduce(product_state, reversed(states))


def parse_name(names: Sequence[Sequence[str]], text: str) -> list[int] | None:
    """For each list in `names`, the index of the name that `text` joins, or None if none does.

    The first parse found is returned; `compose_all` admits only name
    lists whose joins are unique.
    """
    dead: set[tuple[int, int]] = set()  # (list, position) pairs from which no parse ends

    def parse(p: int, at: int) -> list[int] | None:
        if p == len(names):
            return [] if at == len(text) else None
        if (p, at) not in dead:
            for d, name in enumerate(names[p]):
                if text.startswith(name, at) and (rest := parse(p + 1, at + len(name))) is not None:
                    return [d, *rest]
            dead.add((p, at))
        return None

    return parse(0, 0)


def names_unambiguous(names: Sequence[Sequence[str]]) -> bool:
    """Whether joining one name of each list, in order, never gives one text twice.

    That is the unambiguity of the automaton that reads the lists' names
    in turn, decided on its square: two runs that read the same text
    (Weber and Seidl, "On the degree of ambiguity of finite automata",
    TCS 1991), stepped a name at a time.  The runs part where they first
    take different names, one a prefix of the other.  From there the run
    behind reads next, or on a tie the one with fewer lists read.  A state
    is the lists each run has read and `rest`, the letters the run behind
    has yet to read to draw level, a suffix of the other's last name, so
    there are O(total name letters x lists) states and no joined name.
    """
    k = len(names)
    if any(len(set(ns)) < len(ns) for ns in names):
        return False
    todo = [(p, p, a[len(b):])
            for p, ns in enumerate(names, 1) for a in ns for b in ns if a != b and a.startswith(b)]
    seen = set(todo)
    while todo:
        ahead, behind, rest = todo.pop()
        if not rest:
            if ahead == behind == k:
                return False  # two runs took different names and read one text
            ahead, behind = max(ahead, behind), min(ahead, behind)
        for name in names[behind] if behind < k else ():
            if rest.startswith(name):
                nxt = (ahead, behind + 1, rest[len(name):])
            elif name.startswith(rest):
                nxt = (behind + 1, ahead, name[len(rest):])
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def compose_all(swas: Iterable[Swa], name: str | None = None) -> Swa:
    """The network of `swas`, built without a product state: in time that grows with the parts' locations.

    The automata must share delta and own disjoint variables and
    outputs, and joining one location name per part must never give
    one name twice.  A network among `swas` contributes its parts, so
    ``parts`` is flat, and the states are the left fold of
    `product_state` over them (`ProductStates`).
    """
    items = list(swas)
    if not items:
        raise ValueError("nothing to compose")
    first, *rest = items
    if not rest:
        return first if name in (None, first.name) else replace(first, name=name)
    label, variables, inputs, outputs = first.name, first.variables, first.inputs, first.outputs
    for b in rest:
        if b.delta != first.delta:
            raise ValueError(f"cannot compose {label} (delta {first.delta}) with {b.name} (delta {b.delta})")
        overlap = set(variables) & set(b.variables)
        if overlap:
            raise ValueError(f"variable names collide in product: {sorted(overlap)}")
        out_overlap = set(outputs) & set(b.outputs)
        if out_overlap:
            raise ValueError(f"both sides emit {sorted(out_overlap)}")
        label, variables = label + b.name, variables + b.variables
        outputs = _dedup(outputs + b.outputs)
        inputs = tuple(e for e in _dedup(inputs + b.inputs) if e not in outputs)
    parts = tuple(part for swa in items for part in swa.parts or (swa,))
    if not names_unambiguous([[s.name for s in part.states] for part in parts]):
        raise ValueError(
            "product state names collide; rename locations so that pairwise "
            "concatenations stay unique"
        )
    init_values = tuple(pair for swa in items for pair in swa.init_values)
    initial = "".join(swa.initial_state for swa in items)
    return Swa(name or label, variables, init_values, inputs, outputs, ProductStates(parts), initial,
               first.delta, parts)


def compose(a: Swa, b: Swa, name: str | None = None) -> Swa:
    """The network of `a` and `b`: `compose_all` of the pair."""
    return compose_all((a, b), name)


# --- traces and stimulus ------------------------------------------------------


def trace_header(swa: Swa) -> str:
    return ",".join(["tick", "time", "location", *swa.variables, "inputs", "outputs"])


def _fmt(x: float) -> str:
    return "%.15g" % x


@lru_cache(maxsize=None)
def decimal_delta(delta: Fraction) -> int | None:
    """j when the tick length is ``10**-j`` with j <= 3, else None.

    For such a tick length every engine writes the time field of row t as
    the exact decimal t / 10**j: the integer part, then ``.`` and the j
    fraction digits with trailing zeros stripped, or the integer part alone
    when the fraction is 0.  For any other delta the time field is
    ``%.15g`` of t * delta_f.  For a delta m / 10**j with j <= 3 and
    t*m < 10**15 (every t below 10**9 when m < 10**6) the two agree byte
    for byte: that double lies within 2.3e-16 relative of the decimal,
    which has at most 15 significant digits.  Past t = 10**15 at 10**-j,
    where ``%.15g`` would round, the exact decimal is still written.
    """
    return next((j for j in range(4) if delta == Fraction(1, 10**j)), None)


@lru_cache(maxsize=None)
def time_suffixes(j: int) -> tuple[str, ...]:
    """The text after the integer part of the time field, by fraction f < 10**j."""
    return ("",) + tuple(("." + "%0*d" % (j, f)).rstrip("0") for f in range(1, 10**j))


def time_field(t: int, delta: Fraction) -> str:
    """The time field of trace row t, as `decimal_delta` defines it."""
    j = decimal_delta(delta)
    if j is None:
        return _fmt(t * float(delta))
    whole, frac = divmod(t, 10**j)
    return f"{whole}{time_suffixes(j)[frac]}"


def format_trace_row(swa: Swa, t: int, location: str, values: Iterable[float],
                     visible: frozenset[str], emitted: frozenset[str]) -> str:
    ins = ";".join(e for e in swa.inputs if e in visible)
    outs = ";".join(e for e in swa.outputs if e in emitted)
    return ",".join([str(t), time_field(t, swa.delta), location, *map(_fmt, values), ins, outs])


def parse_stimulus(text: str, source: str = "<stimulus>") -> dict[int, frozenset[str]]:
    """Parse a stimulus table: one `tick,events` row per line, read as the C driver reads it.

    Events are semicolon separated, ticks not listed supply no events,
    and a header row is allowed.  Later rows for the same tick add up.
    Rows end at ``\n`` only, and a NUL or ``\r`` ends a row's content.
    Spaces and tabs around the tick and each event are trimmed, and so is
    what `strtol` skips before the tick (``\v``, ``\f``, ``\r``); a tick
    is an optional sign and ASCII digits.  A row that is empty or starts
    with ``#`` or ``\r`` is skipped; so is a first row without a tick.
    """
    table: dict[int, frozenset[str]] = {}
    for line_no, row in enumerate(text.split("\n"), start=1):
        row = row.partition("\0")[0].lstrip(" \t")
        if row[:1] in ("", "#", "\r"):
            continue
        tick = _TICK.match(row)
        if tick is None:
            if line_no == 1:
                continue  # header
            raise ValueError(f"{source}:{line_no}: expected a tick number, got {row.partition(',')[0]!r}")
        t = int(tick[1])
        if t < 0:
            raise ValueError(f"{source}:{line_no}: negative tick {t}")
        rest = row[tick.end():].removeprefix(",").partition("\r")[0]
        events = frozenset(e.strip(" \t") for e in rest.split(";") if e.strip(" \t"))
        table[t] = table.get(t, frozenset()) | events
    return table


# A tick as the driver's `strtol` reads it, then spaces and tabs, before a comma, a `\r` or the row's end.
_TICK = re.compile(r"[\t\v\f\r ]*([+-]?[0-9]+)[ \t]*(?=[,\r]|\Z)")


def read_stimulus(path) -> dict[int, frozenset[str]]:
    """`parse_stimulus` of a file's bytes, as the driver reads them: a byte that is not UTF-8 stays a
    lone surrogate, so it is in no event name and no tick."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return parse_stimulus(fh.read(), source=str(path))


def stimulus_arrays(events: Sequence[str], ticks: int,
                    stimulus: Mapping[int, Iterable[str]] | None) -> tuple[list[int], list[int]]:
    """The stimulus ticks of a run of `ticks` ticks, in order, and the mask of each one's events.

    Bit b of a mask is ``events[b]``, and each distinct event set's mask is
    worked out once.  A tick whose events are all unknown is no stimulus
    tick, since nothing becomes visible; nor is one outside the run, so a
    runner can take the run's length for the next stimulus tick once it
    has consumed every one.
    """
    bit = {e: 1 << b for b, e in enumerate(events)}
    masks: dict[frozenset[str], int] = {}
    stt, stm = [], []
    for t in sorted(t for t in stimulus or () if 0 <= t < ticks):
        evs = frozenset(stimulus[t])
        m = masks.get(evs)
        if m is None:
            m = masks[evs] = sum(bit[e] for e in evs if e in bit)
        if m:
            stt.append(t)
            stm.append(m)
    return stt, stm


def run(
    swa: Swa,
    ticks: int,
    stimulus: Mapping[int, frozenset[str]] | None = None,
    out: TextIO | None = None,
) -> ExecState:
    """Run the generic interpreter for the given number of reactions.

    One `_Config` is made from the initial state and carried through the
    run: `_step` changes it in place on every tick, and `tick` applies the
    same rule to one `ExecState`.  Names and `ExecState`s appear only at
    the edges: the initial state, trace rows, the stuck report and the
    final state.

    When ``out`` is given, a header plus one row per tick is written to
    it: committed values on evolution ticks, post-jump values on switch
    ticks (the value a switch entered with therefore appears on two
    consecutive rows).  Unknown event names in the stimulus are ignored.
    """
    plan, delta_f, variables = switch_plan(swa), swa.delta_f, swa.variables
    cf = _Config(plan, initial_exec_state(swa))
    v = cf.v
    stimuli = zip(*stimulus_arrays(plan.events, ticks, stimulus))
    nxt, mask = next(stimuli, (ticks, 0))
    if out is not None:
        out.write(trace_header(swa) + "\n")
        events = lru_cache(maxsize=None)(lambda m: frozenset(plan.events_in(m)))
    for t in range(ticks):
        inputs = 0
        if t == nxt:
            inputs = mask
            nxt, mask = next(stimuli, (ticks, 0))
        if out is not None:
            vis, committed = cf.pend, [v[var] for var in variables]
        emits = _step(plan, cf, inputs, delta_f)
        if emits is None:
            raise _stuck(swa, plan, cf.j, map(v.__getitem__, variables), cf.k, cf.pend, t)
        if out is not None:
            shown = committed if cf.k else map(v.__getitem__, variables)
            out.write(format_trace_row(swa, t, plan.name(cf.j), shown, events(vis), events(emits)) + "\n")
    return ExecState(plan.name(cf.j), v, cf.i, cf.k, frozenset(plan.events_in(cf.pend)))


# --- specialising engine ------------------------------------------------------


def constraint_text(c: Constraint, name_of: Callable[[str], str], num: Callable[[Rational], str], conj: str) -> str:
    """`c` as source text: its comparisons joined by `conj`, "" when it has none."""
    return conj.join(f"{name_of(x.variable)} {x.op} {num(x.bound)}" for x in c.conjuncts)


def affine_text(expr: AffineExpr, name_of: Callable[[str], str], num: Callable[[Rational], str]) -> str:
    """`expr` as source text, in the float shape `_eval_update` computes."""
    if expr.a == 0:
        return num(expr.b)
    val = name_of(expr.variable)
    if expr.a == 1:
        term = val
    elif expr.a == -1:
        term = f"-{val}"
    else:
        term = f"{num(expr.a)} * {val}"
    if expr.b == 0:
        return term
    return f"{term} + {num(expr.b)}"


def c1_text(w: WitnessFunction, value: str, num: Callable[[Rational], str]) -> str:
    """The entry constant of witness `w` entered at `value`, as `resolve_c1` computes it."""
    if w.kind is WitnessKind.EXPONENTIAL and w.x_eq_f != 0.0:
        return f"{value} - {num(w.x_eq)}"
    return value


def witness_text(w: WitnessFunction, c1: str, k: str, delta_f: float) -> str:
    """`w` at step `k` from the entry constant `c1`, in the float shape of `value_at_tick`.

    The text reads alike in Python and C, where ``exp`` is in scope.  `k`
    is multiplied by the rate per tick, a literal, so pass a difference
    such as ``(k - 1)`` in brackets.
    """
    if w.kind is WitnessKind.CONSTANT:
        return c1
    if w.kind is WitnessKind.LINEAR:
        return f"{c1} + {w.b_f * delta_f!r} * {k}"
    if w.x_eq_f == 0.0:
        return f"{c1} * exp({w.a_f * delta_f!r} * {k})"
    return f"{w.x_eq_f!r} + {c1} * exp({w.a_f * delta_f!r} * {k})"


# --- the tick rule as source text ---------------------------------------------


def ident(role: str, name: str) -> str:
    """The identifier of model name `name` in `role`, in Python and in C: ``<role>_<name>``.

    The roles are ``v`` (a variable's value), ``n`` (its next value),
    ``c1`` (its entry constant), ``i`` (the Python runner's entry value),
    ``g`` (the C driver's text cache), the locals ``prev``, ``s<n>``
    (snap candidates) and ``t<n>`` (staged updates), and ``react`` (the
    C reaction of an automaton).  A model name starts with a letter or
    an underscore, so no two pairs give one identifier, and no header
    the C units include, nor either language, declares a name with one
    of these prefixes.
    """
    return f"{role}_{name}"


class Syntax(Record):
    """How one language spells the tick rule, for the printers below.

    Both languages name the step index ``k``, the event masks ``vis``
    (visible) and ``emit`` (emitted), ``exp``, part p's location index
    ``l<p>``, and a model's names by `ident`.  ``choose`` formats one arm
    of a conditional expression.  ``block(n, cond, body)`` prints branch
    n of an if-chain.  ``dispatch(p, cases)`` runs the body of a case
    ``(d, name, body)`` when ``l<p>`` is d, ``to`` formats the name part
    p's next location index is written to, and ``stuck(p, test, n)``
    gives branch n of the chain over part p's edges, the last: it ends
    the tick as stuck unless the part, with no edge enabled, can evolve
    by its location's evolve test `test`.  ``snap``,
    when set, formats a snap candidate as one declaration from ``{c}``,
    ``{x}``, ``{was}`` (the previous value), ``{b}`` (the bound of the
    first comparison that fails) and ``{holds}`` (all of them hold);
    else each candidate is printed as a chain over its comparisons.
    """

    __slots__ = ("and_", "or_", "not_", "true", "choose", "block", "end", "decl", "num", "dispatch", "to",
                 "stuck", "snap")

    def __init__(self, and_: str, or_: str, not_: str, true: str, choose: str, block: Callable, end: str,
                 decl: str, num: Callable, dispatch: Callable, to: str,
                 stuck: Callable[[int, str, int], list[str]] | None = None, snap: str | None = None) -> None:
        self._set(and_, or_, not_, true, choose, block, end, decl, num, dispatch, to, stuck, snap)


def indent(lines: Iterable[str]) -> list[str]:
    return [f"    {line}" for line in lines]


def _mask(m: int) -> str:
    """An event mask as a literal of both languages: hex from bit 63 on, past C's largest signed decimal."""
    return str(m) if m < 1 << 63 else hex(m)


def _conj(sx: Syntax, *tests: str) -> str:
    return sx.and_.join(t for t in tests if t and t != sx.true) or sx.true


def _chain(sx: Syntax, branches: list[tuple[str, list[str]]]) -> list[str]:
    """The first branch whose test holds runs."""
    return [line for n, (cond, body) in enumerate(branches) for line in sx.block(n, cond, body)]


def _by_location(index: str, exprs: list[str], sx: Syntax) -> str:
    """``exprs[index]``, on a location index: the commonest expression, after a test for each location with
    another."""
    default = max(reversed(exprs), key=exprs.count)
    arms = "".join(sx.choose.format(test=f"{index} == {d}", a=e) for d, e in enumerate(exprs) if e != default)
    return f"({arms}{default})" if arms else default


_value = partial(ident, "v")


def _evolve_test(loc: LocationPlan, sx: Syntax) -> str:
    """`loc`'s evolve test: its triggers silent and its invariant holding."""
    silent = f"(vis & {_mask(loc.triggers)}) == 0" if loc.triggers else ""
    return _conj(sx, silent, constraint_text(loc.invariant, _value, sx.num, sx.and_))


def evolve_tests(parts: tuple[tuple[LocationPlan, ...], ...], sx: Syntax) -> list[str]:
    """Each part's test that it can evolve, on its location index."""
    return [_by_location(f"l{p}", [_evolve_test(loc, sx) for loc in locations], sx)
            for p, locations in enumerate(parts)]


def evolve_code(parts: tuple[tuple[LocationPlan, ...], ...], sx: Syntax) -> str:
    """The test that every part can evolve."""
    return _conj(sx, *evolve_tests(parts, sx))


def step_code(p: int, locations: tuple[LocationPlan, ...], sx: Syntax, delta_f: float) -> list[str]:
    """Part p's evolution step: each variable some location moves, at the new ``k``."""
    lines = []
    for var, _ in locations[0].witnesses:
        n = ident("n", var)
        exprs = [n if w.kind is WitnessKind.CONSTANT else witness_text(w, ident("c1", var), "k", delta_f)
                 for w in (dict(loc.witnesses)[var] for loc in locations)]
        if exprs.count(n) < len(exprs):
            lines.append(f"{n} = {_by_location(f'l{p}', exprs, sx)}{sx.end}")
    return lines


def switch_code(p: int, locations: tuple[LocationPlan, ...], sx: Syntax, delta_f: float) -> list[str]:
    """Part p's switch tick: in its location, the first enabled edge, else frozen if it can evolve, else stuck;
    then the part re-enters the location it is in, whichever way it got there.

    The re-entry is one line per variable, which sets its entry constant
    from its value by the formula of the part's new location, chosen by
    the next location index (`_by_location`), as the generic `tick`
    enters every part at its post values.
    """
    cases = [(d, loc.name, body) for d, loc in enumerate(locations) if (body := _location_switch(p, loc, sx, delta_f))]
    entries = [(var, [c1_text(dict(loc.witnesses)[var], _value(var), sx.num) for loc in locations])
               for var, _ in locations[0].witnesses]
    return (sx.dispatch(p, cases) if cases else []) + [
        f"{ident('c1', var)} = {_by_location(sx.to.format(p), exprs, sx)}{sx.end}" for var, exprs in entries]


def _location_switch(p: int, loc: LocationPlan, sx: Syntax, delta_f: float) -> list[str]:
    """Every edge's snap candidates, then one chain over the edges' tests.

    A candidate is a variable's value moved onto the first of its
    comparisons that fails, if the value crossed that bound since the
    previous tick; edges that snap a variable on the same comparisons
    share one.  The chosen edge moves its candidates in, applies its
    updates, moves the part and emits.  The updates read the snapped
    values, so a candidate is moved in only if an update reads its
    variable or none writes it.  They are assigned directly, in order,
    unless one of them reads a variable that another writes; then every
    update is staged in a ``t<n>`` local first.  With no edge enabled
    the part must be able to evolve, and is frozen.  `switch_code`
    re-enters the location either way.
    """
    lines = []
    v = _value
    prev = {var: ident("prev", var) for var, _ in loc.prev}
    for var, w in loc.prev:
        was = witness_text(w, ident("c1", var), "(k - 1)", delta_f)
        lines.append(f"{sx.decl}{prev[var]} = {sx.choose.format(test='k >= 1', a=was)}{v(var)}{sx.end}")

    cands: dict[tuple[str, tuple[Comparison, ...]], str] = {}
    branches = []
    for e in loc.edges:
        mine = {}
        for var, comps in e.snaps:
            if (var, comps) not in cands:
                cands[var, comps] = c = ident(f"s{len(cands)}", var)
                x, was = v(var), prev[var]
                bounds = [sx.num(cmp.bound) for cmp in comps]
                holds = [f"{x} {cmp.op} {b}" for cmp, b in zip(comps, bounds)]
                if sx.snap:
                    first = "".join(sx.choose.format(test=f"{sx.not_}({h})", a=b) for h, b in zip(holds, bounds[:-1]))
                    lines.append(sx.snap.format(c=c, x=x, was=was, b=first + bounds[-1], holds=sx.and_.join(holds)))
                else:
                    snap = []
                    for h, b in zip(holds, bounds):
                        crossed = f"({was} <= {b}{sx.and_}{b} <= {x}){sx.or_}({x} <= {b}{sx.and_}{b} <= {was})"
                        snap.append((f"{sx.not_}({h})", sx.block(0, crossed, [f"{c} = {b}{sx.end}"])))
                    lines += [f"{sx.decl}{c} = {x}{sx.end}", *_chain(sx, snap)]
            mine[var] = cands[var, comps]
        events = f"(vis & {_mask(e.present | e.absent)}) == {_mask(e.present)}" if e.present | e.absent else ""
        one = f"({' + '.join(f'({c} != {v(var)})' for var, c in mine.items())}) <= 1" if e.exclusive else ""
        guard = constraint_text(e.guard, lambda var: mine.get(var) or v(var), sx.num, sx.and_)
        written = dict(e.updates)
        reads = {var: expr.variable for var, expr in e.updates if expr.a != 0}  # the variable each update reads
        body = [f"{v(var)} = {c}{sx.end}" for var, c in mine.items() if var in reads.values() or var not in written]
        if any(x != var and x in written for var, x in reads.items()):
            temps = [(var, ident(f"t{j}", var), expr) for j, (var, expr) in enumerate(e.updates)]
            body += [f"{sx.decl}{t} = {affine_text(expr, v, sx.num)}{sx.end}" for _, t, expr in temps]
            body += [f"{v(var)} = {t}{sx.end}" for var, t, _ in temps]
        else:
            body += [f"{v(var)} = {affine_text(expr, v, sx.num)}{sx.end}" for var, expr in e.updates]
        body += [f"{sx.to.format(p)} = {e.dst}{sx.end}"]
        body += [f"emit |= {_mask(e.emits)}{sx.end}"] if e.emits else []
        branches.append((_conj(sx, events, one, guard), body))
    evolve = _evolve_test(loc, sx)
    return lines + _chain(sx, branches) + ([] if evolve == sx.true else sx.stuck(p, evolve, len(branches)))


def _py_block(n: int, cond: str, body: list[str]) -> list[str]:
    return [f"{'elif' if n else 'if'} {cond}:", *indent(body)]


# The Python runner's spelling; `_runner_source` adds the stuck statement.
PYTHON = Syntax(
    " and ", " or ", "not ", "True", "{a} if {test} else ", _py_block, "", "", lambda q: repr(float(q)),
    lambda p, cases: _chain(PYTHON, [(f"l{p} == {d}", body) for d, _, body in cases]), "l{}",
)


def _py_time(swa: Swa) -> tuple[str, list[str]]:
    """The %-conversion and the arguments of row ``_t``'s time field."""
    j = decimal_delta(swa.delta)
    if j is None:
        return "%.15g", [f"_t * {swa.delta_f!r}"]
    if j == 0:
        return "%d", ["_t"]
    return "%d%s", [f"_t // {10**j}", f"_suf[_t % {10**j}]"]


def _row_format(stamp: str, n: int, ins: bool, outs: bool, name: str, value: str = "%.15g") -> str:
    """The %-format of a trace row in state `name`, after `stamp`, the conversions of its tick and time
    fields and the comma after them, with `value` for each of its n values: a conversion, or the
    marker `_Jump` splits the row's fixed pieces at."""
    return stamp + ",".join([name, *repeat(value, n), "%s" * ins, "%s" * outs]) + "\n"


def _runner_source(swa: Swa, trace: bool) -> str:
    """Generate the specialised tick loop for an automaton or a network.

    The tick rule is printed from the `switch_plan` by the printers that
    also print the C reaction (`evolve_code`, `step_code`,
    `switch_code`), spelt in `PYTHON`.  When every part's evolve test
    holds, each part's witnesses step; otherwise each part takes the
    first enabled edge of its location, or must be able to evolve and is
    frozen, or the run is stuck.  Every value then re-enters, and the
    product state ``_loc`` is recombined from the parts' ``l<p>``.  When
    ``k`` reaches ``_ask``, the runner calls ``_JUMP`` (a `_Jump`) with
    the run's memo ``_hm``; a switch into a state and entry constants
    the memo holds asks at step 1, any other at `_JUMP_AFTER`.  The
    rule is the same with and without ``trace``.

    Both runners find periods alike.  ``_next`` is the next stimulus
    tick, or ``_TICKS`` once none is left.  A switch tick more than
    ``_far`` (`_JUMP_AFTER`) ticks before ``_next`` looks up its
    configuration ``(_si, _loc, emit, _PACK(n_…))`` in the run's
    ``_seen``, which maps a configuration to the tick it was first seen
    on and holds at most `_HORIZONS_MAX` of them.  ``_PACK`` gives the
    values' bit patterns: 0.0 == -0.0, but the two print apart.  Where
    stimuli come closer together the check is one false test per
    switch.  A miss on a full memo sets ``_far`` to ``_TICKS``, so a
    run whose configurations stop repeating stops paying for the
    lookups; it cannot come while a traced run collects a period,
    whose configurations all hit.  Without ``trace``
    a hit from tick t0 moves ``_t`` on by every whole period P = ``_t``
    - t0 that ends by the tick before ``_next``.  With ``trace`` a hit
    goes to `_Jump.periods`, which collects the rows of the next period
    and then writes them again, with new tick and time fields, for every
    whole period that ends by that tick.  This is exact.  At the end of
    a switch tick k = 0 and every ``i_*`` is its ``n_*``; the ``c1_*``
    and the ``l<p>`` follow from ``_loc`` and the ``n_*``, and ``_pend``
    is ``emit``.  The memos change only how fast the run gets somewhere.
    So two such ticks with equal keys, an equal ``_si`` meaning no
    stimulus between them, start identical futures until the next
    stimulus, and the future from t repeats every P ticks.  A row's
    fields after the time field (the state's name, the values, the
    inputs and outputs) are functions of that future, so they repeat
    every P ticks too; only the tick and time fields change.  Collecting a period's rows changes nothing else: the runner
    steps it as it would, and its writes, `_Jump.write`'s among them, go
    to a list in order.

    With ``trace`` every tick it steps writes its row with one %-format,
    and ``_JUMP`` gets the run's `_Batch` to write the rows it skips.  The
    time field is integer arithmetic when `decimal_delta` allows it, and
    every value is ``%.15g`` of ``v_<var>``, held or not: a held value is
    a repeated one and needs no code of its own.  An evolve row takes the
    format ``_row`` of its product state, with the name in it, looked up
    at every switch with ``_ROWS``, which memoises it.
    """
    plan = switch_plan(swa)
    init = dict(swa.init_values)
    tail = "," if swa.variables else ""
    v, n, i, c1 = (partial(ident, role) for role in ("v", "n", "i", "c1"))
    us = ", ".join(map(n, swa.variables))
    stuck = f"raise _mk_stuck(_loc, ({us}{tail}), k, vis, _t)"
    sx = PYTHON.replace(stuck=lambda p, test, n: _py_block(n, f"not ({test})", [stuck]))

    time_fmt, time_args = _py_time(swa)
    switch_row = repr(_row_format(f"%d,{time_fmt},", len(swa.variables), bool(swa.inputs), bool(swa.outputs), "%s"))

    def write_row(switch: bool) -> str:
        """The statement writing the tick's row."""
        args = ["_t", *time_args] + (["_NAMES(_loc)"] if switch else [])
        args += map(v, swa.variables)
        args += ["_INS(vis)"] * bool(swa.inputs) + ["_OUTS(emit)"] * bool(swa.outputs and switch)
        return f"_write({switch_row if switch else '_row'} % ({', '.join(args)}))"

    w = []  # source lines
    emit = w.append
    emit("def _swarun(_TICKS, _STT, _STM, _write, _mk_stuck):")
    emit("    exp = _EXP")
    start = plan.start
    for loc in plan.at(start):
        for var, wit in loc.witnesses:
            x0 = float(init[var])
            emit(f"    {v(var)} = {n(var)} = {i(var)} = {x0!r}")
            emit(f"    {c1(var)} = {resolve_c1(wit, x0)!r}")
    emit(f"    _loc = {start}")
    if trace:
        emit("    _row = _ROWS(_loc)")
    for p, (locations, stride) in enumerate(zip(plan.parts, plan.strides)):
        emit(f"    l{p} = {start // stride % len(locations)}")
    emit("    k = _pend = _si = _t = 0")
    emit("    _nst = len(_STT)")
    emit("    _next = _STT[0] if _nst else _TICKS")
    emit(f"    _ask = _far = {_JUMP_AFTER}")
    emit("    _hm = {}")
    emit("    _seen, _room = {}, _JUMP.room()")
    if trace:
        emit("    _batch = _BATCH(_write)")
    emit("    while _t < _TICKS:")
    for var in swa.variables:
        emit(f"        {v(var)} = {n(var)}")
    emit("        vis = _pend")
    emit("        emit = 0")
    emit(f"        if {evolve_code(plan.parts, sx)}:")
    emit("            k += 1")
    for p, locations in enumerate(plan.parts):
        w += indent(indent(indent(step_code(p, locations, sx, swa.delta_f))))
    if trace:
        emit(f"            {write_row(False)}")

    # Switching.  n_* keep the committed values until every part has
    # decided, for the stuck report.
    key = f"(_loc, {', '.join(map(c1, swa.variables))})"
    emit("        else:")
    for p, locations in enumerate(plan.parts):
        w += indent(indent(indent(switch_code(p, locations, sx, swa.delta_f))))
    for var in swa.variables:
        emit(f"            {n(var)} = {i(var)} = {v(var)}")
    emit("            k = 0")
    index = " + ".join(f"l{p} * {stride}" if stride != 1 else f"l{p}" for p, stride in enumerate(plan.strides))
    emit(f"            _loc = {index}")
    emit(f"            _ask = 1 if _hm and {key} in _hm else {_JUMP_AFTER}")
    if trace:
        emit("            _row = _ROWS(_loc)")
        emit(f"            {write_row(True)}")
        hit = ["_t, _write = _JUMP.periods(_batch, _t, _seen[_ck], _next)"]
    else:
        hit = ["_p = _t - _seen[_ck]", "_t += (_next - 1 - _t) // _p * _p"]
    emit("            if _next - _t > _far:")
    emit(f"                _ck = (_si, _loc, emit, _PACK({us}))")
    emit("                if _ck in _seen:")
    w += [f"                    {line}" for line in hit]
    emit("                elif len(_seen) < _room:")
    emit("                    _seen[_ck] = _t")
    emit("                else:")
    emit("                    _far = _TICKS")
    emit("        if k == _ask:")
    emit(f"            _t, k, _ask, ({us}{tail}) = _JUMP(_t, k, _next, _TICKS, {key}, _hm{', _batch' * trace})")

    emit("        if _t == _next:")
    emit("            _pend = _STM[_si] | emit")
    emit("            _si += 1")
    emit("            _next = _STT[_si] if _si < _nst else _TICKS")
    emit("        else:")
    emit("            _pend = emit")
    emit("        _t += 1")
    is_ = ", ".join(map(i, swa.variables))
    emit(f"    return (_loc, k, ({us}{tail}), ({is_}{tail}), _pend)")
    return "\n".join(w) + "\n"


class _Jump:
    """The runners' fast-forward across the rest of an evolve stretch.

    Called on an evolve tick t that has just reached step k, in the
    product state and with the entry constants of `key`, it skips d
    more evolve ticks at once: every step before the parts' first
    failing one (`evolve_horizon`) passes, and none of the ticks t ..
    t+d-1 is a stimulus tick, so ticks t+1 .. t+d see no event, would
    all have evolved and emit nothing.  It lands on the last tick of
    the run, on the next stimulus tick, or on the tick before the
    evolve test fails, whichever comes first, and returns the new tick,
    step, the step to ask again at, and every value at that step.
    A stimulus tick that cuts the jump short does not end the stretch,
    so the runner asks again `_JUMP_AFTER` steps later.  The jump over
    whole periods is `periods` with a trace and inline without one;
    `_runner_source` describes it.

    The run's `memo` maps a key to the first failing step F found for
    it, and the runner asks at step 1 of a stretch whose key it holds.
    That answer is exact.  At steps >= 1 a witness value depends only
    on the location, its c1 and the step.  Step 0 holds the raw entry
    value, and two entries can round to the same c1, but step 0 is
    always stepped: the earliest ask is at step 1.  The first visit
    tested steps 1 .. k0-1 by stepping and k0 .. F-1 by
    `evolve_horizon`, so every re-entry with an equal key passes steps
    1 .. F-1, and F is the same answer.  0.0 == -0.0 as a key is safe:
    linear values +-0 + r*k and exponential values x_eq + (+-0)*e**..
    compare alike with every bound.  An entry is stored only when F > k,
    never under a NaN, and at most `_HORIZONS_MAX` per run.

    A traced run passes its `_Batch`, and `write` writes the rows of
    the ticks skipped.
    """

    def __init__(self, swa: Swa):
        plan, variables = switch_plan(swa), swa.variables
        self.variables, self.delta_f, self.dec = variables, swa.delta_f, decimal_delta(swa.delta)
        flows = {}  # each moving witness's (kind, a, b) -> its number, in the order first met

        def state(j: int) -> tuple[tuple[LocationPlan, ...], tuple[WitnessFunction, ...], tuple, list[str]]:
            """State j's locations, each variable's witness and the number of its flow (None for a
            constant), and the fixed pieces of the state's rows between its values."""
            at = dict(w for loc in plan.at(j) for w in loc.witnesses)
            witnesses = tuple(at[var] for var in variables)
            numbers = tuple(None if w.kind is WitnessKind.CONSTANT else flows.setdefault((w.kind, w.a, w.b), len(flows))
                            for w in witnesses)
            pieces = _row_format("", len(variables), False, False, plan.name(j), "\0").split("\0")
            return plan.at(j), witnesses, numbers, pieces
        self.state = lru_cache(maxsize=None)(state)

    def __call__(self, t: int, k: int, nxt: int, ticks: int, key: tuple, memo: dict,
                 batch: _Batch | None = None):
        here, witnesses, _, _ = self.state(key[0])
        fail = memo.get(key)
        if fail is None:
            c1 = dict(zip(self.variables, key[1:]))
            fail = min(evolve_horizon(loc, c1, k, self.delta_f) for loc in here)
            if fail > k and len(memo) < _HORIZONS_MAX and not any(map(math.isnan, key)):
                memo[key] = fail
        last = min(nxt, ticks - 1)
        d = max(min(fail - k, last - t), 0)  # a horizon past its trusted range can lie behind k
        if batch is not None and d > 0:
            self.write(batch, key[0], key[1:], t, k, d)
        k += d
        ask = k + _JUMP_AFTER if t + d == nxt else _JUMP_AFTER
        return t + d, k, ask, tuple([w.value_at_tick(c, k, self.delta_f) for w, c in zip(witnesses, key[1:])])

    @staticmethod
    def room() -> int:
        """How many entries a run's memos may hold: `_HORIZONS_MAX`, read when the run starts."""
        return _HORIZONS_MAX

    def write(self, batch: _Batch, state: int, c1: tuple[float, ...], t: int, k: int, d: int) -> None:
        """Write the rows of ticks t+1 .. t+d in product state `state`, in blocks of `_BLOCK` rows.

        Tick t+i shows the state's name, every value at step k+i-1 from its
        entry constant in `c1` (in variable order) and no inputs or
        outputs.  A block is joined from texts: each row's stamp, then the
        state's fixed pieces between the value columns.  A constant's text
        is the same on every row, so it joins the pieces around it.
        """
        _, witnesses, flows, pieces = self.state(state)
        row, columns = [None, pieces[0]], []
        for w, flow, c, piece in zip(witnesses, flows, c1, pieces[1:]):
            if flow is None:
                row[-1] += _fmt(c) + piece
            else:  # the key carries the sign: 0.0 == -0.0, but a witness entered at -0.0 prints "-0"
                columns.append((len(row), w, (flow, c, math.copysign(1.0, c))))
                row += [None, piece]
        width = len(row)
        for lo in range(0, d, _BLOCK):
            n = min(_BLOCK, d - lo)
            rows = row * n
            rows[::width] = self.stamps(range(t + 1 + lo, t + 1 + lo + n))
            for at, w, key in columns:
                rows[at::width] = self.texts(batch, w, key, k + lo, k + lo + n)
            batch.write("".join(rows))

    def stamps(self, ticks: range) -> Iterable[str]:
        """The text ``"t,time,"`` that starts the row of each tick t in `ticks`, a non-empty range."""
        if self.dec is None:
            return map("%d,%.15g,".__mod__, zip(ticks, map(self.delta_f.__rmul__, ticks)))
        stamps = []  # a tick length of 10**-dec: cut from the templates of whole thousands of ticks
        for a in range(ticks.start // 1000, (ticks.stop + 999) // 1000):
            text, offsets = _stamp_template(self.dec, a > 0)
            lo, hi = max(ticks.start - 1000 * a, 0), min(ticks.stop - 1000 * a, 1000)
            stamps += text[offsets[lo]:offsets[hi] - 1].replace("\0", str(a)).split("\1")
        return stamps

    def periods(self, batch: _Batch, t: int, first: int, nxt: int) -> tuple[int, Callable[[str], object]]:
        """A traced run's jump over whole periods, on a switch tick t whose configuration tick `first` had.

        The first such tick, with a period P = t - `first` of at most
        `_BLOCK` ticks, starts collecting: the rows of ticks t+1 .. t+P,
        which the runner steps as usual, go to ``batch.rows``.  On tick
        t+P the configuration is t's again; the collected rows are
        written, and then every whole period that ends before `nxt`, the
        next stimulus tick or the run's length, each row a collected one
        with its tick and time fields replaced.  Collecting starts only
        when at least one such period follows and tick t+P passes the
        runner's gate (`nxt` more than `_JUMP_AFTER` ticks on), so it
        always ends.  Returns the tick to go on from and the writer of
        the runner's rows.
        """
        if batch.rows is None:
            p = t - first
            if p <= _BLOCK and nxt - t - p > max(p, _JUMP_AFTER):
                batch.rows, batch.cut = [], t + p
                batch.write = batch.rows.append
        elif t == batch.cut:
            text, batch.rows, batch.write = "".join(batch.rows), None, batch.out
            batch.write(text)
            # the fields after the tick and the time: name, values, inputs, outputs and newline
            tails = [row.split(",", 2)[2] for row in text.splitlines(True)]
            stop = t + 1 + (nxt - 1 - t) // len(tails) * len(tails)
            rows = cycle(tails)
            for lo in range(t + 1, stop, _BLOCK):
                batch.write("".join(chain.from_iterable(zip(self.stamps(range(lo, min(lo + _BLOCK, stop))), rows))))
            t = stop - 1
        return t, batch.write

    def texts(self, batch: _Batch, w: WitnessFunction, key: tuple, lo: int, hi: int) -> list[str]:
        """`_fmt` of `w`'s values at steps lo .. hi-1 from the entry constant key[1].

        `key` is w's flow number (`state`), the constant and its sign.  The
        values are one float expression of the flow's kind, a and b, the
        constant and the step, so every witness with that flow entered at
        that constant shows the same texts, in any location and for any
        variable.  They come from the run's memo, which holds, by key, the
        first step it holds and the texts from there on.  A periodic orbit
        re-enters a stretch at the same constant and slices the list, which
        grows at either end: a first visit is asked from step
        `_JUMP_AFTER`, a re-entry from step 1.
        """
        first, texts = batch.get(key, (lo, []))
        end, c1 = first + len(texts), key[1]
        new = lambda a, b: list(map("%.15g".__mod__, _witness_values(w, c1, range(a, b), self.delta_f)))
        grow = max(first - lo, 0) + max(hi - end, 0)
        if grow > batch.room or c1 != c1:  # a NaN is no key
            return new(lo, hi)
        if grow:
            texts[:0] = new(lo, first)
            texts += new(end, hi)
            batch.room -= grow
            first = min(first, lo)
            batch[key] = first, texts
        return texts[lo - first:hi - first]


@lru_cache(maxsize=None)
def _stamp_template(e: int, later: bool) -> tuple[str, list[int]]:
    """The stamps of ticks 1000a .. 1000a+999 at a tick length of 10**-e, and where each starts.

    The first thousand (``later`` false) are written out.  For a > 0, tick
    1000a + b is the text of a, then b in three digits, and its time
    (1000a + b) / 10**e is the text of a, then b's first 3 - e digits
    and the suffix of its last e (`time_suffixes`); the template writes
    NUL for a's text.  The stamps are separated by "\\1".
    """
    suffixes = time_suffixes(e)
    stamps = [f"\0{b:03d},\0{b:03d}"[:9 - e] + f"{suffixes[b % 10**e]}," if later
              else f"{b},{b // 10**e}{suffixes[b % 10**e]}," for b in range(1000)]
    return "\1".join(stamps), [0, *accumulate(len(stamp) + 1 for stamp in stamps)]


def _witness_values(w: WitnessFunction, c1: float, steps: range, delta_f: float) -> Iterable[float]:
    """``w.value_at_tick(c1, s, delta_f)`` for each s in `steps` of a moving `w`: the same doubles."""
    if w.kind is WitnessKind.LINEAR:
        return map(operator.add, repeat(c1), map(operator.mul, repeat(w.b_f * delta_f), steps))
    grown = map(operator.mul, repeat(c1), map(math.exp, map(operator.mul, repeat(w.a_f * delta_f), steps)))
    return grown if w.x_eq_f == 0.0 else map(operator.add, repeat(w.x_eq_f), grown)


class _Batch(dict):
    """A traced run's `write` and its own memo of value texts (`_Jump.texts`), with ``room`` for more.

    The memo maps a witness's flow, an entry constant and the constant's
    sign (0.0 == -0.0, but the two print apart) to the first step it
    holds and the `%.15g` texts of that flow's values from there on.
    ``out`` is the run's writer.  While `_Jump.periods` collects a period,
    ``write`` appends to ``rows`` instead, until tick ``cut``.
    """

    def __init__(self, write: Callable[[str], object]):
        super().__init__()
        self.write = self.out = write
        self.room, self.rows, self.cut = _TEXTS_MAX, None, -1


# The runners ask `_Jump` once a stretch they have not seen this run
# reaches this step (a known one asks at step 1), and shorter stretches
# pay one comparison per tick.  On a 2-CPU Xeon VM a clock's stretch
# costs, jumped by a call against stepped: without a trace, where a call
# costs as much as stepping about 60 ticks, +87% at 49 steps and even at
# about 100; with a trace, where a stepped tick costs 4 to 7 times as
# much, +7% at 49 steps and even at about 55.  There `write` takes about
# 4.3 us for 1 row and 6.5 us for 32 whose texts the run holds, and the
# call around it, with a first visit's `evolve_horizon`, about 7 us.  At
# 16, the bundled models' traced runs took 4% less, but stretches of 17
# to 31 steps would jump at a loss.  Short stretches of a periodic run
# are skipped by the period jump instead.  A switch tick looks its
# configuration up only when the next stimulus is more than this many
# ticks away (none, after a miss on a full memo), so an input every 3 to
# 25 ticks (switch-dense) costs one comparison per switch and stores
# nothing.
_JUMP_AFTER = 32
_BLOCK = 1024  # rows per write of a traced jump, and the longest period whose rows a traced run copies
_TEXTS_MAX = 1 << 16
_HORIZONS_MAX = 1 << 12  # `_Jump`'s memo entries per run


def _runner(swa: Swa, trace: bool):
    """The built runner, memoised on `swa`.

    `_build_runner`'s cache compares an equal but distinct product field
    by field; with the memo that happens at most once per product.
    """
    fn = swa._runners.get(trace)
    if fn is None:
        fn = swa._runners[trace] = _build_runner(swa, trace)
    return fn


@lru_cache(maxsize=64)
def _build_runner(swa: Swa, trace: bool):
    source = _runner_source(swa, trace)
    namespace = {"_EXP": math.exp, "_suf": time_suffixes(decimal_delta(swa.delta) or 0)}
    namespace["_JUMP"] = _Jump(swa)
    namespace["_PACK"] = struct.Struct("<%dd" % len(swa.variables)).pack  # the values' bit patterns
    if trace:  # texts by product state and by event mask, each built once; none refers to `swa`
        plan, memo = switch_plan(swa), lru_cache(maxsize=None)
        evolve_row = partial(_row_format, f"%d,{_py_time(swa)[0]},", len(swa.variables), bool(swa.inputs), False)
        names = lambda events: memo(lambda m: ";".join(e for e in events if m & plan.mask((e,))))
        namespace.update(_ROWS=memo(lambda j: evolve_row(plan.name(j))), _BATCH=_Batch,
                         _NAMES=plan.name, _INS=names(swa.inputs), _OUTS=names(swa.outputs))
    exec(compile(source, f"<swa:{swa.name}>", "exec"), namespace)
    return namespace.pop("_swarun")  # the runner's globals must not hold it: no reference cycle


def run_compiled(
    swa: Swa,
    ticks: int,
    stimulus: Mapping[int, frozenset[str]] | None = None,
    out: TextIO | None = None,
) -> ExecState:
    """Run the specialising engine.  Same contract and output as `run`."""
    plan = switch_plan(swa)
    stt, stm = stimulus_arrays(plan.events, ticks, stimulus)
    if out is not None:
        out.write(trace_header(swa) + "\n")
    fn = _runner(swa, out is not None)
    write = out.write if out is not None else None
    loc, k, us, is_, pend = fn(ticks, stt, stm, write, partial(_stuck, swa, plan))
    values = lambda xs: dict(zip(swa.variables, xs))
    return ExecState(plan.name(loc), values(us), values(is_), k, frozenset(plan.events_in(pend)))


ENGINES = ("generic", "compiled")


def simulate(
    swa: Swa,
    ticks: int,
    stimulus: Mapping[int, frozenset[str]] | None = None,
    out: TextIO | None = None,
    engine: str = "compiled",
) -> ExecState:
    """Run `ticks` reactions with the selected engine ("auto" is an old name of "compiled")."""
    if engine not in ENGINES and engine != "auto":
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine == "generic":
        return run(swa, ticks, stimulus, out)
    return run_compiled(swa, ticks, stimulus, out)
