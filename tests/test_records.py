"""The value semantics of syncha's records: equality, hashing, immutability, replace."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from syncha.codegen import CodegenOptions, emit_c
from syncha.expr import AffineExpr, Comparison, Constraint, Interval, LinearForm, NonlinearExpr
from syncha.model import Diagnostic, Flow, parse_model
from syncha.odesolve import WitnessFunction, WitnessKind
from syncha.shagen import generate_sha
from syncha.swa import ExecState, compile_automaton, compose_all, initial_exec_state, switch_plan
from syncha.whacheck import Violation, check_wha

from conftest import DELTA, MODELS

WATERTANK = (MODELS / "watertank.pha").read_text()


def records(text=WATERTANK):
    """One record of each kind, all built from the same model text."""
    net = parse_model(text)
    tank = net.automata[0]
    loc, edge = tank.locations[1], tank.edges[0]
    sha, _ = generate_sha(tank, DELTA)
    swa = compile_automaton(tank, DELTA)[0]
    plan = switch_plan(swa)
    network = compose_all(compile_automaton(a, DELTA)[0] for a in net.automata)
    return {
        "Interval": Interval(Fraction(1), Fraction(2), True, False),
        "Comparison": Comparison("x", "<=", Fraction(5, 2)),
        "Constraint": loc.invariant,
        "AffineExpr": AffineExpr(Fraction(2), Fraction(-1, 3), "x"),
        "LinearForm": loc.flows[0].rhs,
        "NonlinearExpr": NonlinearExpr("x * x"),
        "Diagnostic": Diagnostic("CODE", "message", 3),
        "Flow": loc.flows[0],
        "EventExpr": edge.event,
        "Location": loc,
        "Edge": edge,
        "HybridAutomaton": tank,
        "Network": net,
        "WitnessFunction": sha.analyses[1].witnesses[0][1],
        "VariableDwell": sha.analyses[1].dwells[0],
        "LocationAnalysis": sha.analyses[1],
        "Sha": sha,
        "WhaReport": check_wha(tank),
        "Violation": Violation("NON_MONOTONE", "flow x' in t2", "changes sign", 12),
        "SwaState": swa.states[1],
        "SelfTransition": swa.states[1].self_transition,
        "SwaTransition": swa.states[1].egress[0],
        "LocationPlan": plan.parts[0][1],
        "EdgePlan": plan.parts[0][1].edges[0],
        "SwitchPlan": plan,
        "ProductStates": network.states,
        "CodegenOptions": CodegenOptions(ticks=5, stimulus_path="in.csv"),
    }


class TestEquality:
    @pytest.mark.parametrize("kind", sorted(records()))
    def test_equal_records_hash_equally(self, kind):
        a, b = records()[kind], records()[kind]
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_line_numbers_are_not_compared(self):
        moved = records("\n\n\n" + WATERTANK)
        for kind in ("Flow", "Location", "Edge", "HybridAutomaton", "Network"):
            a, b = records()[kind], moved[kind]
            if kind != "Network":
                assert a.line != b.line
            assert a == b
            assert hash(a) == hash(b)

    def test_a_diagnostic_compares_its_line(self):
        assert Diagnostic("C", "m", 3) != Diagnostic("C", "m", 4)

    @pytest.mark.parametrize("record, derived", [
        (Comparison("x", "<=", Fraction(1, 3)), ("bound_f",)),
        (AffineExpr(Fraction(1, 3), Fraction(2), "x"), ("a_f", "b_f")),
        (WitnessFunction(WitnessKind.EXPONENTIAL, "x", Fraction(-1), Fraction(3), Fraction(3)),
         ("a_f", "b_f", "x_eq_f")),
    ])
    def test_derived_floats_are_not_compared(self, record, derived):
        twin = record.replace()
        for name in derived:
            object.__setattr__(twin, name, -7.5)
        assert twin == record
        assert hash(twin) == hash(record)

    def test_records_of_different_kinds_differ(self):
        assert Constraint(()) != LinearForm()
        assert Interval.full() != (Interval.full().lo, Interval.full().hi, False, False)

    def test_exec_states_compare_by_value(self):
        a = ExecState("t1b1", {"x": 20.0}, {"x": 20.0}, 3, frozenset({"ON"}))
        b = ExecState("t1b1", dict(x=20.0), dict(x=20.0), 3, frozenset(["ON"]))
        assert a == b
        assert a != b.replace(k=4)


class TestImmutability:
    @pytest.mark.parametrize("kind", sorted(records()))
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        record = records()[kind]
        name = next(iter(inspect.signature(type(record)).parameters))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    # A plan's memos are closures, which copy and pickle by identity.
    @pytest.mark.parametrize("kind", sorted(set(records()) - {"SwitchPlan"}))
    def test_copies_and_pickles_are_equal(self, kind):
        record = records()[kind]
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record

    def test_exec_state_is_immutable(self, tank_swa):
        st = initial_exec_state(tank_swa)
        with pytest.raises(AttributeError):
            st.k = 1


class TestReplace:
    def test_replace_recomputes_derived_floats(self):
        c = Comparison("x", "<=", Fraction(1)).replace(bound=Fraction(5, 2))
        assert c.bound_f == 2.5
        a = AffineExpr(Fraction(1), Fraction(2), "x").replace(a=Fraction(3), b=Fraction(-1, 2))
        assert (a.a_f, a.b_f) == (3.0, -0.5)
        w = WitnessFunction(WitnessKind.LINEAR, "x", b=Fraction(1)).replace(b=Fraction(4))
        assert w.b_f == 4.0
        sha = records()["Sha"]
        assert sha.replace(delta=Fraction(1, 8)).delta_f == 0.125

    def test_replace_keeps_what_it_is_not_given(self):
        flow = records()["Flow"]
        moved = flow.replace(line=99)
        assert (moved.variable, moved.rhs, moved.line) == (flow.variable, flow.rhs, 99)

    def test_replace_normalises_again(self):
        assert LinearForm().replace(coeffs=(("y", Fraction(0)), ("x", Fraction(2)))).coeffs == (
            ("x", Fraction(2)),)
        assert Interval.closed(Fraction(1), Fraction(2)).replace(lo=Fraction(3)) == Interval.empty()


class TestNormalising:
    def test_an_inverted_interval_is_empty(self):
        assert Interval(Fraction(3), Fraction(1)) == Interval.empty()
        assert Interval(3, 1) == Interval.empty()
        assert Interval(3, 1).is_empty
        assert hash(Interval(Fraction(2), Fraction(2), True, False)) == hash(Interval.empty())

    def test_empty_is_the_open_interval_at_zero(self):
        e = Interval.empty()
        assert (e.lo, e.hi, e.lo_closed, e.hi_closed) == (0, 0, False, False)
        assert not Interval.point(Fraction(0)).is_empty

    def test_linear_form_drops_zero_coefficients_and_sorts(self):
        f = LinearForm((("y", Fraction(1)), ("x", Fraction(0)), ("a", Fraction(-2))))
        assert f.coeffs == (("a", Fraction(-2)), ("y", Fraction(1)))


class TestRepr:
    def test_repr_is_the_dataclass_format(self):
        assert repr(Comparison("x", "<=", Fraction(1, 2))) == (
            "Comparison(variable='x', op='<=', bound=Fraction(1, 2))")
        assert repr(Flow("x", NonlinearExpr("x * x"), 4)) == (
            "Flow(variable='x', rhs=NonlinearExpr(text='x * x'), line=4)")
        assert repr(CodegenOptions()) == "CodegenOptions(ticks=10000, stimulus_path=None)"

    def test_a_c_unit_is_a_value(self, tank_swa):
        unit = emit_c(tank_swa, CodegenOptions(ticks=3))
        assert unit == emit_c(tank_swa, CodegenOptions(ticks=3))
        assert unit.file_names() == (f"{unit.name}.c", f"{unit.name}_main.c")


def test_the_cli_defines_no_dataclass_but_swa():
    """Records carry no generated methods; `syncha compile` alone imports codegen."""
    probe = (
        "import sys, syncha.cli\n"
        "found = sorted(f'{m.__name__}.{c.__qualname__}' for m in list(sys.modules.values())\n"
        "               if m.__name__.startswith('syncha') for c in vars(m).values()\n"
        "               if isinstance(c, type) and c.__module__ == m.__name__\n"
        "               and '__dataclass_fields__' in vars(c))\n"
        "print(found, 'syncha.codegen' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['syncha.swa.Swa']", "False"]
