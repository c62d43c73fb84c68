"""Closed-form witness functions for affine ODEs and their analysis.

A flow ``x' = a*x + b`` has one of three closed forms:

  a == 0, b == 0:  x(t) = C1                     (CONSTANT)
  a == 0, b != 0:  x(t) = C1 + b*t               (LINEAR)
  a != 0:          x(t) = x_eq + C1*e^(a*t)      (EXPONENTIAL), x_eq = -b/a

Each form is monotone in t for any fixed C1, which is what makes
worst-case dwell times and tick-window saturation computable.  Parameters
are exact rationals; evaluation happens in doubles, with the same
association order the emitted C uses (``(a*delta)*k``) so interpreter and
generated code agree bit for bit.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .expr import (
    AffineExpr,
    Interval,
    LinearForm,
    NonlinearExpr,
    Rational,
    Record,
    interval_intersect,
    sign_region,
)


class UnsupportedOde(Exception):
    """The right-hand side has no closed form in the supported affine class."""


class WitnessKind(enum.Enum):
    CONSTANT = "CONSTANT"
    LINEAR = "LINEAR"
    EXPONENTIAL = "EXPONENTIAL"


# Read by `WitnessFunction.value_at_tick` on every evolve tick of the generic engine: an Enum
# member read through its class costs about 0.1 us on CPython 3.11, a global a tenth of that.
_CONSTANT, _LINEAR = WitnessKind.CONSTANT, WitnessKind.LINEAR


class Monotonicity(enum.Enum):
    INCREASING = "INCREASING"
    DECREASING = "DECREASING"
    CONSTANT = "CONSTANT"
    NON_MONOTONE = "NON_MONOTONE"


class _Unreachable:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


class WitnessFunction(Record):
    """Closed-form solution of one affine flow, with C1 left symbolic.

    ``a`` and ``b`` are the flow coefficients (x' = a*x + b).  For the
    exponential kind ``x_eq`` is the equilibrium -b/a; it is None
    otherwise.
    """

    __slots__ = ("kind", "variable", "a", "b", "x_eq", "a_f", "b_f", "x_eq_f")

    def __init__(
        self, kind: WitnessKind, variable: str, a: Rational = Fraction(0), b: Rational = Fraction(0),
        x_eq: Rational | None = None,
    ) -> None:
        self._set(kind, variable, a, b, x_eq, float(a), float(b), float(x_eq) if x_eq is not None else 0.0)

    def value_at(self, c1: float, t: float) -> float:
        """Value at continuous time t (analysis use)."""
        if self.kind is WitnessKind.CONSTANT:
            return c1
        if self.kind is WitnessKind.LINEAR:
            return c1 + self.b_f * t
        if self.x_eq_f == 0.0:
            return c1 * math.exp(self.a_f * t)
        return self.x_eq_f + c1 * math.exp(self.a_f * t)

    def value_at_tick(self, c1: float, k: int, delta: float) -> float:
        """Value at the k-th tick of size delta.

        Matches the emitted C expression shape exactly: the time product is
        associated as (rate*delta)*k, and the equilibrium term is omitted
        (not added as 0.0) when the equilibrium is zero.
        """
        kind = self.kind
        if kind is _CONSTANT:
            return c1
        if kind is _LINEAR:
            return c1 + (self.b_f * delta) * k
        if self.x_eq_f == 0.0:
            return c1 * math.exp((self.a_f * delta) * k)
        return self.x_eq_f + c1 * math.exp((self.a_f * delta) * k)


def solve_ode(variable: str, rhs) -> WitnessFunction:
    """Solve x' = rhs for the named variable.

    ``rhs`` may be a LinearForm, an AffineExpr, or a NonlinearExpr marker.
    Raises UnsupportedOde when the right-hand side is nonlinear or mentions
    any variable other than the one being flowed.
    """
    if isinstance(rhs, NonlinearExpr):
        raise UnsupportedOde(
            f"no closed-form solution for {variable}' = {rhs.text}: not affine"
        )
    if isinstance(rhs, LinearForm):
        foreign = [v for v in rhs.variables() if v != variable]
        if foreign:
            raise UnsupportedOde(
                f"{variable}' = {rhs} references other variables: {', '.join(foreign)}"
            )
        affine = rhs.as_affine(variable)
    elif isinstance(rhs, AffineExpr):
        if rhs.a != 0 and rhs.variable != variable:
            raise UnsupportedOde(
                f"{variable}' depends on {rhs.variable}, not on {variable}"
            )
        affine = rhs
    else:
        raise TypeError(f"unsupported rhs type {type(rhs).__name__}")

    a, b = affine.a, affine.b
    if a == 0 and b == 0:
        return WitnessFunction(WitnessKind.CONSTANT, variable)
    if a == 0:
        return WitnessFunction(WitnessKind.LINEAR, variable, b=b)
    return WitnessFunction(WitnessKind.EXPONENTIAL, variable, a=a, b=b, x_eq=-b / a)


def resolve_c1(witness: WitnessFunction, x0: float) -> float:
    """Integration constant that makes the witness pass through x(0) = x0."""
    if witness.kind is WitnessKind.EXPONENTIAL:
        return x0 - witness.x_eq_f
    return x0


def classify_monotonicity(
    rhs: AffineExpr,
    invariant_bounds: Interval,
    boundary: Interval | None = None,
) -> Monotonicity:
    """Sign of the flow over the admissible value region.

    The admissible region is the invariant projection intersected with the
    entry-value boundary when one is given.  The verdict is INCREASING when
    only the positive sign region of the right-hand side meets that region,
    DECREASING when only the negative one does, CONSTANT when neither does,
    and NON_MONOTONE when both do (the flow changes sign inside the
    region, so no single witness direction exists).
    """
    region = invariant_bounds
    if boundary is not None:
        region = interval_intersect(region, boundary)
    pos = not interval_intersect(sign_region(rhs, True), region).is_empty
    neg = not interval_intersect(sign_region(rhs, False), region).is_empty
    if pos and neg:
        return Monotonicity.NON_MONOTONE
    if pos:
        return Monotonicity.INCREASING
    if neg:
        return Monotonicity.DECREASING
    return Monotonicity.CONSTANT


def time_to_reach(witness: WitnessFunction, x0: float, target: float):
    """Smallest t >= 0 with x(t) = target for the trajectory starting at x0.

    Returns a float, +inf for an asymptotic approach (exponential decay
    toward an equilibrium that equals the target), or the UNREACHABLE
    sentinel when the trajectory never attains the target.
    """
    if math.isinf(target):
        return math.inf
    if witness.kind is WitnessKind.CONSTANT:
        return 0.0 if target == x0 else UNREACHABLE
    if math.isinf(x0):
        return math.inf
    if witness.kind is WitnessKind.LINEAR:
        t = (target - x0) / witness.b_f
        if t < 0:
            return UNREACHABLE
        return t + 0.0
    # exponential
    x_eq = witness.x_eq_f
    if x0 == x_eq:
        return 0.0 if target == x0 else UNREACHABLE
    if target == x_eq:
        # decay (a < 0) approaches the equilibrium but never reaches it;
        # growth (a > 0) moves away from it.
        return math.inf if witness.a_f < 0 else UNREACHABLE
    ratio = (target - x_eq) / (x0 - x_eq)
    if ratio <= 0:
        return UNREACHABLE
    t = math.log(ratio) / witness.a_f
    if t < 0:
        return UNREACHABLE
    return t + 0.0
