"""Static well-formedness verification of a hybrid automaton.

Four criteria gate compilation:

1. every invariant and edge guard is a conjunction of single-variable
   comparisons against rational constants,
2. every flow has a closed-form solution in the supported affine class,
3. every flow is monotone within the location's invariant bounds (its
   slope must not change sign there),
4. the initial location's ``boundary`` annotations contain the declared
   initial values, and every edge enters its destination inside the
   boundaries that location declares, since the dwell analysis starts
   from the boundary.

An edge's entry image is the closure of its source invariant (the tick
snaps a value leaving through a guard onto the guard's bound, which
may lie on the invariant's open end) intersected with its guard,
mapped through its update; a variable the edge does not update keeps
its projection.  A frozen part re-entering its own location is not an
edge and is not checked.

`foreign_reads` states the rule that an automaton reads only its own
variables, since parts share only events.  It is not one of the four
criteria, which judge an automaton on its own: the lowering
(`swa.build_swa`) refuses such reads, and ``syncha check`` reports
each one with its line.

Unlike a fail-fast gate, the checker accumulates every violation so a
report lists all of them at once.  The verdict is PASS exactly when the
violation list is empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from .expr import (
    COMPARISON_OPS,
    Constraint,
    Interval,
    LinearForm,
    NonlinearExpr,
    Record,
    constraint_to_interval,
    format_number,
    interval_intersect,
)
from .model import Diagnostic, Edge, HybridAutomaton, Location
from .odesolve import Monotonicity, UnsupportedOde, classify_monotonicity, solve_ode

NON_CVX_CONSTRAINT = "NON_CVX_CONSTRAINT"
NO_CLOSED_FORM = "NO_CLOSED_FORM"
NON_MONOTONE = "NON_MONOTONE"
INIT_OUTSIDE_BOUNDARY = "INIT_OUTSIDE_BOUNDARY"
ENTRY_OUTSIDE_BOUNDARY = "ENTRY_OUTSIDE_BOUNDARY"
FOREIGN_READ = "FOREIGN_READ"


class Violation(Record):
    __slots__ = ("kind", "where", "detail", "line")

    def __init__(
        self, kind: str,  # NON_CVX_CONSTRAINT | NO_CLOSED_FORM | NON_MONOTONE | *_OUTSIDE_BOUNDARY | FOREIGN_READ
        where: str,  # location or edge description
        detail: str, line: int = 0,
    ) -> None:
        self._set(kind, where, detail, line)

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


class WhaReport(Record):
    __slots__ = ("automaton", "violations")

    def __init__(self, automaton: str, violations: tuple[Violation, ...]) -> None:
        self._set(automaton, violations)

    @property
    def verdict(self) -> str:
        return "PASS" if not self.violations else "FAIL"

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_diagnostics(self) -> list[Diagnostic]:
        """The report in the model module's diagnostic schema."""
        return [
            Diagnostic(v.kind, f"{v.where}: {v.detail}", v.line) for v in self.violations
        ]

    def __str__(self) -> str:
        head = f"{self.automaton}: {self.verdict}"
        if not self.violations:
            return head
        return head + "\n" + "\n".join(f"  {v}" for v in self.violations)


def _constraint_violations(c: Constraint, where: str, line: int) -> list[Violation]:
    out = []
    for comp in c.conjuncts:
        if comp.op not in COMPARISON_OPS:
            out.append(
                Violation(
                    NON_CVX_CONSTRAINT,
                    where,
                    f"operator {comp.op!r} is outside the constraint grammar",
                    line,
                )
            )
        elif not isinstance(comp.bound, Fraction):
            out.append(
                Violation(
                    NON_CVX_CONSTRAINT,
                    where,
                    f"bound {comp.bound!r} on {comp.variable} is not rational",
                    line,
                )
            )
        elif not comp.variable:
            out.append(
                Violation(NON_CVX_CONSTRAINT, where, "comparison has no variable", line)
            )
    return out


def _entry_image(e: Edge, var: str, invariant: Callable[[str], Interval]) -> Interval:
    """The values `var` can enter ``e.dst`` with (see the module docstring).

    `invariant` projects the source location's invariant onto a variable.
    """

    def leaving(v: str) -> Interval:
        inv = invariant(v)
        closure = inv if inv.is_empty else Interval(inv.lo, inv.hi, True, True)
        return interval_intersect(closure, constraint_to_interval(e.guard, v))

    update = dict(e.updates).get(var)
    if update is None:
        return leaving(var)
    if update.a == 0:
        return Interval.point(update.b)
    iv = leaving(update.variable)
    if iv.is_empty:
        return iv
    lo, hi = update.a * iv.lo + update.b, update.a * iv.hi + update.b
    if update.a > 0:
        return Interval(lo, hi, iv.lo_closed, iv.hi_closed)
    return Interval(hi, lo, iv.hi_closed, iv.lo_closed)


def check_wha(ha: HybridAutomaton) -> WhaReport:
    """Verify all well-formedness criteria, reporting every violation.

    Violations are ordered by location declaration order (the location's
    invariant first, then its flows in order, then its boundaries), with
    edge violations after all locations, in edge declaration order (each
    edge's guard, then its entry into each boundary of its destination).
    A boundary is reported at its location's line, an entry at its edge's.
    """
    violations: list[Violation] = []
    malformed = set()  # locations whose invariant is outside the grammar
    projections: dict[tuple[str, str], Interval] = {}

    def projection(loc: Location, var: str) -> Interval:
        """`loc`'s invariant projected onto `var`, computed once per check."""
        if (loc.name, var) not in projections:
            projections[loc.name, var] = constraint_to_interval(loc.invariant, var)
        return projections[loc.name, var]

    for loc in ha.locations:
        inv_violations = _constraint_violations(
            loc.invariant, f"invariant of {loc.name}", loc.line
        )
        violations.extend(inv_violations)
        if inv_violations:
            malformed.add(loc.name)
        for flow in loc.flows:
            where = f"flow {flow.variable}' in {loc.name}"
            if isinstance(flow.rhs, NonlinearExpr):
                violations.append(
                    Violation(
                        NO_CLOSED_FORM,
                        where,
                        f"{flow.variable}' = {flow.rhs.text} has no closed-form "
                        "solution in the supported affine class",
                        flow.line,
                    )
                )
                continue
            try:
                solve_ode(flow.variable, flow.rhs)
            except UnsupportedOde as exc:
                violations.append(Violation(NO_CLOSED_FORM, where, str(exc), flow.line))
                continue
            if inv_violations:
                # the invariant is outside the grammar, so its projection is
                # meaningless; don't pile a bogus direction verdict on top
                continue
            rhs = flow.rhs.as_affine(flow.variable)
            bounds = projection(loc, flow.variable)
            verdict = classify_monotonicity(rhs, bounds)
            if verdict is Monotonicity.NON_MONOTONE:
                violations.append(
                    Violation(
                        NON_MONOTONE,
                        where,
                        f"slope {flow.rhs} changes sign inside the invariant "
                        f"bounds {bounds} (both sign regions intersect them)",
                        flow.line,
                    )
                )
        for var, value in loc.init or ():
            entry = loc.boundary_for(var)
            if entry is not None and not entry.contains(value):
                violations.append(Violation(
                    INIT_OUTSIDE_BOUNDARY, f"boundary of {var} in {loc.name}",
                    f"{entry} does not contain the initial value {format_number(value)}", loc.line))

    for e in ha.edges:
        guard_violations = _constraint_violations(e.guard, f"guard of edge {e.src} -> {e.dst}", e.line)
        violations.extend(guard_violations)
        if guard_violations or e.src in malformed:
            continue
        for var, boundary in ha.location(e.dst).boundary:
            image = _entry_image(e, var, partial(projection, ha.location(e.src)))
            if interval_intersect(image, boundary) != image:
                violations.append(Violation(
                    ENTRY_OUTSIDE_BOUNDARY, f"edge {e.src} -> {e.dst}",
                    f"enters {var} in {image}, outside the boundary {boundary} of {e.dst}", e.line))

    return WhaReport(ha.name, tuple(violations))


def foreign_reads(ha: HybridAutomaton) -> tuple[Violation, ...]:
    """Every read of a variable `ha` does not own, by an invariant, a guard or an update's right-hand
    side, once per place and variable, in declaration order, at the line of its location or edge."""
    reads = [(f"invariant of {loc.name}", loc.invariant.variables(), loc.line) for loc in ha.locations]
    for e in ha.edges:
        reads += [(f"guard of edge {e.src} -> {e.dst}", e.guard.variables(), e.line),
                  (f"update on edge {e.src} -> {e.dst}", [x.variable for _, x in e.updates if x.a != 0], e.line)]
    return tuple(dict.fromkeys(
        Violation(FOREIGN_READ, where, f"reads {var}, which {ha.name} does not own", line)
        for where, names, line in reads for var in names if var not in ha.variables))
