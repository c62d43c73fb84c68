from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from syncha.expr import (
    AffineExpr,
    Comparison,
    Constraint,
    Interval,
    LinearForm,
    NonlinearExpr,
    constraint_to_interval,
    format_number,
    lin_add,
    lin_div,
    lin_mul,
    lin_neg,
    lin_sub,
    sign_region,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=100
)


class TestInterval:
    def test_point_and_closed(self):
        p = Interval.point(Fraction(5))
        assert p.contains(Fraction(5))
        assert not p.contains(Fraction(6))
        c = Interval.closed(Fraction(1), Fraction(3))
        assert c.contains(Fraction(1)) and c.contains(Fraction(3))

    def test_empty_when_crossed(self):
        assert Interval.closed(Fraction(3), Fraction(1)).is_empty
        assert Interval.empty().is_empty

    def test_open_endpoints_excluded(self):
        iv = Interval.open(Fraction(0), Fraction(1))
        assert not iv.contains(Fraction(0))
        assert not iv.contains(Fraction(1))
        assert iv.contains(Fraction(1, 2))

    def test_full_contains_everything(self):
        assert Interval.full().contains(Fraction(10**9))
        assert Interval.full().contains(Fraction(-(10**9)))

    def test_open_point_is_empty(self):
        assert Interval.open(Fraction(2), Fraction(2)).is_empty

    @given(rationals, rationals, rationals, rationals, rationals)
    def test_intersect_agrees_with_membership(self, a, b, c, d, x):
        left = Interval.closed(min(a, b), max(a, b))
        right = Interval.closed(min(c, d), max(c, d))
        both = left.intersect(right)
        assert both.contains(x) == (left.contains(x) and right.contains(x))

    @given(rationals, rationals, rationals, rationals)
    def test_intersect_commutes(self, a, b, c, d):
        left = Interval.closed(min(a, b), max(a, b))
        right = Interval.open(min(c, d), max(c, d))
        assert left.intersect(right) == right.intersect(left)


class TestComparison:
    def test_holds_matches_exact_on_exact_floats(self):
        comp = Comparison("x", "<=", Fraction(25, 2))
        for val in (12.0, 12.5, 13.0):
            assert comp.holds(val) == comp.holds_exact(Fraction(val))

    @given(rationals, st.sampled_from(("<", "<=", ">", ">=", "==")), rationals)
    def test_holds_exact_is_plain_arithmetic(self, bound, op, value):
        comp = Comparison("x", op, bound)
        expected = {
            "<": value < bound,
            "<=": value <= bound,
            ">": value > bound,
            ">=": value >= bound,
            "==": value == bound,
        }[op]
        assert comp.holds_exact(value) == expected

    def test_unknown_operator_rejected_on_use(self):
        comp = Comparison("x", "!=", Fraction(1))
        with pytest.raises(ValueError):
            comp.holds(0.0)
        with pytest.raises(ValueError):
            comp.to_interval()

    def test_to_interval(self):
        assert Comparison("x", "==", Fraction(7)).to_interval() == Interval.point(
            Fraction(7)
        )
        iv = Comparison("x", "<", Fraction(3)).to_interval()
        assert iv.contains(Fraction(2)) and not iv.contains(Fraction(3))


class TestConstraint:
    def test_projection_onto_variable(self):
        c = Constraint(
            (
                Comparison("x", ">=", Fraction(20)),
                Comparison("x", "<=", Fraction(100)),
                Comparison("y", "==", Fraction(0)),
            )
        )
        iv = constraint_to_interval(c, "x")
        assert iv == Interval.closed(Fraction(20), Fraction(100))
        assert constraint_to_interval(c, "y") == Interval.point(Fraction(0))
        assert constraint_to_interval(c, "z") == Interval.full()

    def test_holds_requires_every_conjunct(self):
        c = Constraint(
            (Comparison("x", ">=", Fraction(0)), Comparison("y", "<", Fraction(5)))
        )
        assert c.holds({"x": 0.0, "y": 4.9})
        assert not c.holds({"x": -0.1, "y": 4.9})
        assert not c.holds({"x": 0.0, "y": 5.0})

    def test_true_constraint(self):
        assert Constraint.true().holds({})
        assert Constraint.true().variables() == ()

    def test_conjoin_concatenates(self):
        a = Constraint((Comparison("x", ">=", Fraction(0)),))
        b = Constraint((Comparison("y", "<=", Fraction(1)),))
        joined = a.conjoin(b)
        assert joined.variables() == ("x", "y")
        assert len(joined.conjuncts) == 2


class TestAffine:
    def test_evaluate_and_root(self):
        e = AffineExpr(Fraction(-3, 40), Fraction(45, 4), "x")  # 0.075*(150 - x)
        assert e.evaluate(150.0) == pytest.approx(0.0)
        assert e.root() == Fraction(150)
        assert AffineExpr(Fraction(0), Fraction(2), "x").root() is None

    @given(rationals, rationals, rationals)
    def test_sign_region_matches_evaluation(self, a, b, x):
        e = AffineExpr(a, b, "x")
        value = e.evaluate_exact(x)
        pos = sign_region(e, positive=True)
        neg = sign_region(e, positive=False)
        assert pos.contains(x) == (value > 0)
        assert neg.contains(x) == (value < 0)

    def test_sign_regions_for_cooling_flow(self):
        e = AffineExpr(Fraction(-3, 40), Fraction(45, 4), "x")
        pos = sign_region(e, positive=True)
        neg = sign_region(e, positive=False)
        assert pos.contains(Fraction(149)) and not pos.contains(Fraction(150))
        assert neg.contains(Fraction(151)) and not neg.contains(Fraction(150))


class TestLinearForm:
    def test_single_variable_to_affine(self):
        form = lin_sub(
            LinearForm.constant(Fraction(150)), LinearForm.of_variable("x"), "150 - x"
        )
        scaled = lin_mul(LinearForm.constant(Fraction(3, 40)), form, "0.075 * (150 - x)")
        aff = scaled.as_affine("x")
        assert aff.a == Fraction(-3, 40)
        assert aff.b == Fraction(45, 4)

    def test_multi_variable_rejected_as_affine(self):
        form = lin_add(LinearForm.of_variable("x"), LinearForm.of_variable("y"), "x + y")
        with pytest.raises(ValueError):
            form.as_affine("x")

    def test_product_of_variables_is_nonlinear(self):
        prod = lin_mul(LinearForm.of_variable("x"), LinearForm.of_variable("x"), "x * x")
        assert isinstance(prod, NonlinearExpr)

    def test_division_by_variable_is_nonlinear(self):
        quot = lin_div(LinearForm.constant(Fraction(1)), LinearForm.of_variable("x"), "1 / x")
        assert isinstance(quot, NonlinearExpr)

    def test_division_by_constant(self):
        half = lin_div(LinearForm.of_variable("x"), LinearForm.constant(Fraction(2)), "x / 2")
        assert half.coefficient("x") == Fraction(1, 2)

    def test_negation(self):
        neg = lin_neg(LinearForm.of_variable("x"), "-x")
        assert neg.coefficient("x") == Fraction(-1)


class TestNumberFormatting:
    def test_terminating_decimals_stay_decimal(self):
        assert format_number(Fraction(1, 4)) == "0.25"
        assert format_number(Fraction(-3, 40)) == "-0.075"
        assert format_number(Fraction(7)) == "7"

    def test_non_terminating_fall_back_to_fraction(self):
        assert format_number(Fraction(1, 3)) == "1/3"

    @given(rationals)
    def test_format_number_round_trips(self, q):
        assert Fraction(format_number(q)) == q
