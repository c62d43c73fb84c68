"""Affine expressions, comparison constraints, and intervals over the reals.

All static analysis in this package runs over exact rationals
(``fractions.Fraction``) so sign and bound computations carry no rounding
error.  Runtime valuations are plain floats; every type here caches the
float image of its rational fields so the simulator never converts in a
hot loop.

The constraint language is deliberately small: finite conjunctions of
comparisons between one variable and one rational constant, with the
operators ``<  <=  >  >=  ==``.  Disjunction, variable-vs-variable
comparisons, and nonlinear terms are not representable.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Union

Rational = Fraction
Endpoint = Union[Fraction, float]  # floats are only ever +-inf here

COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}
COMPARISON_OPS = tuple(COMPARE)

NEG_INF = float("-inf")
POS_INF = float("inf")


class MissingVariable(KeyError):
    """A constraint or expression referenced a variable absent from the valuation."""

    def __init__(self, variable: str):
        super().__init__(variable)
        self.variable = variable

    def __str__(self) -> str:
        return f"valuation does not bind variable {self.variable!r}"


class Record:
    """An immutable value, compared, hashed and shown by its constructor's parameters.

    ``__slots__`` lists the parameters, then any fields derived from them;
    ``__init__`` passes `_set` their values in that order.  Equality and
    hashing skip ``_uncompared``.  Unlike a frozen dataclass, no methods
    are compiled for each class."""

    __slots__ = ("__weakref__",)
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._key = operator.attrgetter(*(f for f in cls._fields if f not in cls._uncompared))
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def _set(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor too
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with `changes` made, built by the constructor, so derived fields follow."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def _is_inf(x: Endpoint) -> bool:
    return isinstance(x, float) and math.isinf(x)


class Interval(Record):
    """A possibly unbounded real interval with independent endpoint closure.

    Construction normalises away every degenerate shape, so two intervals
    containing the same points compare equal: anything empty collapses to
    the canonical ``Interval.empty()`` (the open interval (0, 0)), and
    infinite endpoints are always open.
    """

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(
        self, lo: Endpoint = NEG_INF, hi: Endpoint = POS_INF, lo_closed: bool = False, hi_closed: bool = False,
    ) -> None:
        if _is_inf(lo):
            lo_closed = False
        if _is_inf(hi):
            hi_closed = False
        empty = (
            lo > hi
            or (lo == hi and not (lo_closed and hi_closed))
            or (isinstance(lo, float) and lo == POS_INF)
            or (isinstance(hi, float) and hi == NEG_INF)
        )
        if empty:
            lo, hi, lo_closed, hi_closed = Fraction(0), Fraction(0), False, False
        self._set(lo, hi, lo_closed, hi_closed)

    @classmethod
    def empty(cls) -> "Interval":
        return _EMPTY

    @classmethod
    def full(cls) -> "Interval":
        return cls(NEG_INF, POS_INF, False, False)

    @classmethod
    def point(cls, x: Rational) -> "Interval":
        return cls(x, x, True, True)

    @classmethod
    def closed(cls, lo: Rational, hi: Rational) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: Endpoint, hi: Endpoint) -> "Interval":
        return cls(lo, hi, False, False)

    @property
    def is_empty(self) -> bool:
        # normalised: equal endpoints are either both closed or the canonical empty interval
        return not self.lo_closed and self.lo == self.hi

    def contains(self, x) -> bool:
        """Membership for a real number (float or Fraction)."""
        if self.is_empty:
            return False
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return lo_ok and hi_ok

    def intersect(self, other: "Interval") -> "Interval":
        return interval_intersect(self, other)

    def __str__(self) -> str:
        if self.is_empty:
            return "EMPTY"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-inf" if _is_inf(self.lo) else str(self.lo)
        hi = "inf" if _is_inf(self.hi) else str(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


_EMPTY = Interval(Fraction(0), Fraction(0), False, False)


def interval_intersect(a: Interval, b: Interval) -> Interval:
    """Tightest interval contained in both arguments."""
    if a.is_empty or b.is_empty:
        return Interval.empty()
    if a.lo > b.lo:
        lo, lo_c = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_c = b.lo, b.lo_closed
    else:
        lo, lo_c = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_c = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_c = b.hi, b.hi_closed
    else:
        hi, hi_c = a.hi, a.hi_closed and b.hi_closed
    return Interval(lo, hi, lo_c, hi_c)


def _compare(op: str, value, bound) -> bool:
    if op not in COMPARE:
        raise ValueError(f"unknown comparison operator {op!r}")
    return COMPARE[op](value, bound)


class Comparison(Record):
    """A single atom ``variable op bound`` with a rational bound."""

    __slots__ = ("variable", "op", "bound", "bound_f")

    def __init__(self, variable: str, op: str, bound: Rational) -> None:
        self._set(variable, op, bound, float(bound))

    def holds(self, value: float) -> bool:
        return _compare(self.op, value, self.bound_f)

    def holds_exact(self, value: Rational) -> bool:
        return _compare(self.op, value, self.bound)

    def to_interval(self) -> Interval:
        b = self.bound
        if self.op == "<":
            return Interval(NEG_INF, b, False, False)
        if self.op == "<=":
            return Interval(NEG_INF, b, False, True)
        if self.op == ">":
            return Interval(b, POS_INF, False, False)
        if self.op == ">=":
            return Interval(b, POS_INF, True, False)
        if self.op == "==":
            return Interval.point(b)
        raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.variable} {self.op} {format_number(self.bound)}"


class Constraint(Record):
    """A finite conjunction of comparisons.  The empty conjunction is TRUE."""

    __slots__ = ("conjuncts",)

    def __init__(self, conjuncts: tuple[Comparison, ...] = ()) -> None:
        self._set(conjuncts)

    @classmethod
    def true(cls) -> "Constraint":
        return cls(())

    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.variable for c in self.conjuncts))

    def holds(self, valuation: Mapping[str, float]) -> bool:
        for c in self.conjuncts:
            if c.variable not in valuation:
                raise MissingVariable(c.variable)
            if not c.holds(valuation[c.variable]):
                return False
        return True

    def conjoin(self, other: "Constraint") -> "Constraint":
        return Constraint(self.conjuncts + other.conjuncts)

    def __str__(self) -> str:
        if not self.conjuncts:
            return "true"
        return " && ".join(str(c) for c in self.conjuncts)


def constraint_to_interval(constraint: Constraint, variable: str) -> Interval:
    """Project a conjunction onto one variable as the tightest interval.

    Conjuncts over other variables are ignored; contradictory conjuncts
    yield the canonical empty interval.
    """
    acc = None
    for c in constraint.conjuncts:
        if c.variable == variable:
            acc = c.to_interval() if acc is None else interval_intersect(acc, c.to_interval())
    return Interval.full() if acc is None else acc


class AffineExpr(Record):
    """The function x -> a*x + b over a single named variable."""

    __slots__ = ("a", "b", "variable", "a_f", "b_f")

    def __init__(self, a: Rational, b: Rational, variable: str) -> None:
        self._set(a, b, variable, float(a), float(b))

    def evaluate(self, value: float) -> float:
        return self.a_f * value + self.b_f

    def evaluate_exact(self, value: Rational) -> Rational:
        return self.a * value + self.b

    def root(self) -> Rational | None:
        """The unique zero of the expression, or None when a == 0."""
        if self.a == 0:
            return None
        return -self.b / self.a


def sign_region(expr: AffineExpr, positive: bool) -> Interval:
    """Open region of the variable's axis where the expression is > 0 (or < 0).

    For a == 0 the answer is the full line or the empty interval depending
    on the sign of b; for a != 0 the two regions are the open half-lines on
    either side of the root -b/a.
    """
    if expr.a == 0:
        if (expr.b > 0) == positive and expr.b != 0:
            return Interval.full()
        return Interval.empty()
    r = expr.root()
    assert r is not None
    # a > 0: expression positive above the root; a < 0: positive below it.
    above = (expr.a > 0) == positive
    if above:
        return Interval(r, POS_INF, False, False)
    return Interval(NEG_INF, r, False, False)


# --- linear forms -----------------------------------------------------------
#
# The surface syntax allows arbitrary +, -, * and constant division over
# declared variables, e.g. ``0.075 * (150 - x)``.  Parsing normalises such
# terms into a LinearForm (coefficients plus constant).  Products of two
# variable-bearing terms cannot be normalised; they are kept as an opaque
# NonlinearExpr so the well-formedness check can report them instead of the
# parser rejecting the model outright.


class LinearForm(Record):
    """sum(coeff_i * var_i) + const, with all-rational coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, Rational], ...] = (), const: Rational = Fraction(0)) -> None:
        self._set(tuple(sorted(((v, c) for v, c in coeffs if c != 0))), const)

    @classmethod
    def constant(cls, value: Rational) -> "LinearForm":
        return cls((), Fraction(value))

    @classmethod
    def of_variable(cls, name: str) -> "LinearForm":
        return cls(((name, Fraction(1)),), Fraction(0))

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coefficient(self, variable: str) -> Rational:
        for v, c in self.coeffs:
            if v == variable:
                return c
        return Fraction(0)

    def evaluate(self, valuation: Mapping[str, float]) -> float:
        acc = float(self.const)
        for v, c in self.coeffs:
            if v not in valuation:
                raise MissingVariable(v)
            acc += float(c) * valuation[v]
        return acc

    def as_affine(self, default_variable: str) -> AffineExpr:
        """View as a single-variable affine expression.

        Constants become 0*default_variable + b.  Raises ValueError when
        more than one variable carries a nonzero coefficient.
        """
        if not self.coeffs:
            return AffineExpr(Fraction(0), self.const, default_variable)
        if len(self.coeffs) > 1:
            names = ", ".join(self.variables())
            raise ValueError(f"expression is not affine in one variable (uses {names})")
        (v, c), = self.coeffs
        return AffineExpr(c, self.const, v)

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{format_number(c)} * {v}")
        if self.const != 0 or not parts:
            parts.append(format_number(self.const))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += f" - {p[1:]}"
            else:
                out += f" + {p}"
        return out


class NonlinearExpr(Record):
    """A parsed expression outside the affine class, kept only as source text."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self._set(text)

    def variables(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return self.text


ExprForm = Union[LinearForm, NonlinearExpr]


def lin_add(a: ExprForm, b: ExprForm, text: str) -> ExprForm:
    if isinstance(a, NonlinearExpr) or isinstance(b, NonlinearExpr):
        return NonlinearExpr(text)
    merged = dict(a.coeffs)
    for v, c in b.coeffs:
        merged[v] = merged.get(v, Fraction(0)) + c
    return LinearForm(tuple(merged.items()), a.const + b.const)


def lin_neg(a: ExprForm, text: str) -> ExprForm:
    if isinstance(a, NonlinearExpr):
        return NonlinearExpr(text)
    return LinearForm(tuple((v, -c) for v, c in a.coeffs), -a.const)


def lin_sub(a: ExprForm, b: ExprForm, text: str) -> ExprForm:
    return lin_add(a, lin_neg(b, text), text)


def lin_mul(a: ExprForm, b: ExprForm, text: str) -> ExprForm:
    if isinstance(a, NonlinearExpr) or isinstance(b, NonlinearExpr):
        return NonlinearExpr(text)
    if a.coeffs and b.coeffs:
        return NonlinearExpr(text)
    if a.coeffs:
        a, b = b, a
    # a is now a pure constant
    k = a.const
    return LinearForm(tuple((v, k * c) for v, c in b.coeffs), k * b.const)


def lin_div(a: ExprForm, b: ExprForm, text: str) -> ExprForm:
    if isinstance(a, NonlinearExpr) or isinstance(b, NonlinearExpr):
        return NonlinearExpr(text)
    if b.coeffs:
        return NonlinearExpr(text)
    if b.const == 0:
        raise ZeroDivisionError("division by zero in expression")
    k = b.const
    return LinearForm(tuple((v, c / k) for v, c in a.coeffs), a.const / k)


def format_number(q: Rational) -> str:
    """Render a rational the way the model format writes numbers.

    Denominators of the form 2^a * 5^b print as exact decimals; anything
    else falls back to a fraction literal ``p/q`` (re-parseable because the
    grammar has constant division).
    """
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        shift = max(twos, fives)
        scaled = q.numerator * 10**shift // q.denominator
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(shift + 1, "0")
        return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
    return f"{q.numerator}/{q.denominator}"
