"""Dwell-time analysis: bound how many ticks each location can be occupied.

For every location and every variable it owns, the continuous flow is
replaced by its closed-form witness and the worst-case dwell time is the
time that witness needs to travel from the least favourable entry value
(the boundary annotation) to the invariant bound it moves toward.  The
location bound is the minimum over its variables; divided by the tick
width delta it yields the maximum number of consecutive evolution steps.

A location where no variable ever forces an exit (a constant flow, an
unbounded invariant, or an asymptotic approach) has no finite bound.
Such locations are legal but leaving them cannot be guaranteed by time
alone, so the analysis attaches a fairness warning instead of failing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import AffineExpr, Interval, Record, constraint_to_interval
from .model import HybridAutomaton, Location
from .odesolve import (
    UNREACHABLE,
    Monotonicity,
    WitnessFunction,
    classify_monotonicity,
    solve_ode,
    time_to_reach,
)
from .whacheck import WhaReport, check_wha


class IllFormedAutomaton(ValueError):
    """`generate_sha` refused an automaton; ``report`` lists the violations."""

    def __init__(self, report: WhaReport):
        self.report = report
        super().__init__(f"automaton is not well formed:\n{report}")


class VariableDwell(Record):
    """Worst-case travel time for one variable in one location."""

    __slots__ = ("variable", "witness", "direction", "entry_value", "exit_bound", "dwell")

    def __init__(
        self, variable: str, witness: WitnessFunction, direction: Monotonicity,
        entry_value: float | None,  # least favourable admissible entry value, None if there is none
        exit_bound: float | None,  # invariant bound the flow moves toward, None if it moves toward none
        dwell: float,  # seconds, may be +inf
    ) -> None:
        self._set(variable, witness, direction, entry_value, exit_bound, dwell)


class LocationAnalysis(Record):
    __slots__ = ("location", "witnesses", "dwells", "worst_case_time", "nsteps", "fairness_warning")

    def __init__(
        self, location: str, witnesses: tuple[tuple[str, WitnessFunction], ...],
        dwells: tuple[VariableDwell, ...], worst_case_time: float,  # seconds, may be +inf
        nsteps: int | None,  # None when unbounded
        fairness_warning: bool,
    ) -> None:
        self._set(location, witnesses, dwells, worst_case_time, nsteps, fairness_warning)

    def witness_for(self, variable: str) -> WitnessFunction:
        for name, w in self.witnesses:
            if name == variable:
                return w
        raise KeyError(f"location {self.location} has no witness for {variable!r}")


class Sha(Record):
    """A hybrid automaton paired with its per-location dwell analysis."""

    __slots__ = ("base", "delta", "analyses", "delta_f")

    def __init__(self, base: HybridAutomaton, delta: Fraction, analyses: tuple[LocationAnalysis, ...]) -> None:
        self._set(base, delta, analyses, float(delta))

    def analysis(self, location: str) -> LocationAnalysis:
        for a in self.analyses:
            if a.location == location:
                return a
        raise KeyError(f"no analysis for location {location!r}")


def _implicit_zero_flow(variable: str) -> AffineExpr:
    return AffineExpr(Fraction(0), Fraction(0), variable)


def _variable_dwell(
    variable: str, witness: WitnessFunction, direction: Monotonicity,
    entry: Interval, bounds: Interval,
) -> VariableDwell:
    """Dwell bound from the least favourable entry point to the exit bound.

    An increasing flow enters lowest and exits through the invariant's
    upper bound; a decreasing one enters highest and exits through the
    lower bound.  A constant flow never exits on its own.  An unreachable
    exit bound contributes no constraint at all: claiming a finite (or
    zero) dwell there would understate how long the location can hold.
    """
    if direction is Monotonicity.INCREASING:
        entry_value, exit_bound = float(entry.lo), float(bounds.hi)
    elif direction is Monotonicity.DECREASING:
        entry_value, exit_bound = float(entry.hi), float(bounds.lo)
    else:
        entry_value = float(entry.lo) if not entry.is_empty else None
        return VariableDwell(variable, witness, direction, entry_value, None, math.inf)
    if entry.is_empty:
        # no admissible entry value: the location cannot be entered at all
        return VariableDwell(variable, witness, direction, None, exit_bound, 0.0)
    t = time_to_reach(witness, entry_value, exit_bound)
    if t is UNREACHABLE:
        t = math.inf
    return VariableDwell(variable, witness, direction, entry_value, exit_bound, t)


def _analyse_location(ha: HybridAutomaton, loc: Location, delta: Fraction) -> LocationAnalysis:
    witnesses = []
    dwells = []
    for var in ha.variables:
        flow = loc.flow_for(var)
        rhs = flow.rhs.as_affine(var) if flow is not None else _implicit_zero_flow(var)
        witness = solve_ode(var, rhs)
        bounds = constraint_to_interval(loc.invariant, var)
        entry = loc.entry_interval(var)
        direction = classify_monotonicity(rhs, bounds, entry)
        witnesses.append((var, witness))
        dwells.append(_variable_dwell(var, witness, direction, entry, bounds))
    worst = min((d.dwell for d in dwells), default=math.inf)
    nsteps = None if math.isinf(worst) else math.ceil(Fraction(worst) / delta)
    return LocationAnalysis(
        location=loc.name,
        witnesses=tuple(witnesses),
        dwells=tuple(dwells),
        worst_case_time=worst,
        nsteps=nsteps,
        fairness_warning=math.isinf(worst),
    )


def generate_sha(ha: HybridAutomaton, delta: Fraction) -> tuple[Sha, list[str]]:
    """Analyse every location of a well-formed automaton at tick width delta.

    Returns the analysed automaton and a list of fairness warnings, one
    per location whose dwell time is unbounded.  Raises ValueError for a
    non-positive delta, and IllFormedAutomaton (a ValueError) for an
    automaton that fails the static checks.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"tick width must be positive, got {delta}")
    report = check_wha(ha)
    if not report.passed:
        raise IllFormedAutomaton(report)
    analyses = tuple(_analyse_location(ha, loc, delta) for loc in ha.locations)
    warnings = [
        f"fairness required: location {a.location} of {ha.name} has an unbounded dwell time"
        for a in analyses
        if a.fairness_warning
    ]
    return Sha(ha, delta, analyses), warnings


def sha_to_ir(sha: Sha) -> dict:
    """JSON-serialisable summary of the analysis (for --emit-ir)."""
    return {
        "automaton": sha.base.name,
        "delta": str(sha.delta),
        "locations": [
            {
                "name": a.location,
                "witnesses": [
                    {
                        "variable": var,
                        "kind": w.kind.name,
                        "rate": str(w.a),
                        "offset": str(w.b),
                        "equilibrium": None if w.kind.name != "EXPONENTIAL" else str(w.x_eq),
                    }
                    for var, w in a.witnesses
                ],
                "dwells": [
                    {
                        "variable": d.variable,
                        "direction": d.direction.name,
                        "entry_value": _json_float(d.entry_value),
                        "exit_bound": _json_float(d.exit_bound),
                        "seconds": _json_float(d.dwell),
                    }
                    for d in a.dwells
                ],
                "worst_case_time": _json_float(a.worst_case_time),
                "nsteps": a.nsteps,
                "fairness_warning": a.fairness_warning,
            }
            for a in sha.analyses
        ],
    }


def _json_float(x: float | None):
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
