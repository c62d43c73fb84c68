"""The no-trace runner's fast-forward across evolve stretches.

Without a trace, the specialised runner jumps an evolve stretch to the
last tick on which it still evolves (`swa.evolve_horizon`, called
through `swa._Jump`); the traced runner and the generic engine step
tick by tick.  These tests compare the final states, bit for bit.
"""

import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncha import swa
from syncha.expr import Comparison, Constraint
from syncha.model import load_model, parse_model
from syncha.odesolve import WitnessFunction, WitnessKind
from syncha.swa import (
    LocationPlan,
    UnreachableState,
    compile_automaton,
    compose_all,
    evolve_horizon,
    simulate,
)
from oracles import fuzz_model, fuzz_network

DELTAS = (Fraction(1, 100), Fraction(1, 8), Fraction(1, 3))


def product_of(text, delta=Fraction(1, 100)):
    net = parse_model(text)
    return compose_all(compile_automaton(a, delta)[0] for a in net.automata)


def bits(values):
    return {var: x.hex() for var, x in values.items()}


def final(product, ticks, stimulus, engine, traced):
    """The final state with its values as bit patterns, or the stuck report."""
    try:
        st_ = simulate(product, ticks, stimulus, out=io.StringIO() if traced else None, engine=engine)
    except UnreachableState as exc:
        return ("stuck", str(exc), exc.tick, exc.state, bits(exc.valuation), exc.k, exc.visible)
    return (st_.location, bits(st_.v), bits(st_.i), st_.k, st_.pending_pre)


def assert_engines_agree(product, ticks, stimulus=None):
    jumped = final(product, ticks, stimulus, "compiled", traced=False)
    assert jumped == final(product, ticks, stimulus, "compiled", traced=True)
    assert jumped == final(product, ticks, stimulus, "generic", traced=False)
    return jumped


@pytest.fixture
def jumps(monkeypatch):
    """Every fast-forward call as (tick, step, tick landed on, step landed on)."""
    calls = []
    real = swa._Jump.__call__

    def spy(self, t, k, nxt, ticks, locs, c1s):
        result = real(self, t, k, nxt, ticks, locs, c1s)
        calls.append((t, k, result[0], result[1]))
        return result

    monkeypatch.setattr(swa._Jump, "__call__", spy)
    return calls


class TestFuzzed:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        network=st.booleans(),
        delta=st.sampled_from(DELTAS),
        ticks=st.integers(1, 3000),
        data=st.data(),
    )
    def test_no_trace_final_state_matches_stepping(self, seed, network, delta, ticks, data):
        product = product_of(fuzz_network(seed) if network else fuzz_model(seed), delta)
        events = st.sampled_from(sorted(product.events()) + ["NOISE"])
        stimulus = data.draw(st.dictionaries(
            st.integers(0, ticks), st.frozensets(events, min_size=1, max_size=2), max_size=8))
        assert_engines_agree(product, ticks, stimulus)


CLOCK = """
network clockwork
automaton clock
  var x init 0
  output TICK
  initial location run
    invariant x >= 0 && x <= 50
    flow x' = 100
  edge run -> run guard x == 50 do x' := 0 emit TICK
"""

CREEP = """
network creep
automaton creeper
  var x init 0
  initial location rise
    invariant x >= 0 && x {op} 10
    flow x' = 0.5 * ({eq} - x)
  location rest
    invariant x >= 0
    flow x' = 0
  edge rise -> rest guard x == 10
"""

LATCH = """
network latch
automaton gate
  var x init 0
  input GO NOISE
  initial location open
    invariant x >= 0
    flow x' = 1
  location shut
    invariant x >= 0
    flow x' = 0
  edge open -> shut on GO do x' := 0
"""

PULSED = """
network pulsed
automaton pulse
  var c init 0
  initial location beat
    invariant c >= 0 && c <= 0.4
    flow c' = 1
  edge beat -> beat guard c == 0.4 do c' := 0
automaton heat
  var h init 20
  initial location warm
    invariant h >= 0 && h <= 100
    flow h' = 0.1 * (120 - h)
  location cool
    invariant h >= 20 && h <= 100
    flow h' = -0.05 * h
  edge warm -> cool guard h == 100
  edge cool -> warm guard h == 20
"""


class TestTargeted:
    def test_integer_clock_lands_exactly_on_its_bound(self, jumps):
        # +1.0 a tick: x == 50 at step 50, the invariant fails at 51 and x snaps back to 50
        product = product_of(CLOCK)
        assert assert_engines_agree(product, 1000)[3] == 1000 % 52
        assert jumps[0] == (31, 32, 50, 51)  # ticks 32..50 would test steps 32..50
        assert all(k == 32 and k1 == 51 for _, k, _, k1 in jumps)

    @pytest.mark.parametrize("op, eq", [
        ("<=", "10.000001"),  # crosses 10 after about 3,200 ticks
        ("<=", "10.000000000001"),  # creeps along 10, a few ulps a tick
        ("<", "10"),  # reaches the strict bound only by rounding
    ])
    def test_exponential_with_its_asymptote_just_past_a_bound(self, jumps, op, eq):
        product = product_of(CREEP.format(op=op, eq=eq))
        outcome = assert_engines_agree(product, 12_000)
        assert jumps and jumps[0][:2] == (31, 32)
        if op == "<=":
            assert outcome[0] == "rest"

    def test_run_ends_mid_stretch(self, jumps, thermostat_swa):
        outcome = assert_engines_agree(thermostat_swa, 150)
        assert outcome[:1] == ("cooling",) and outcome[3] == 150
        assert jumps == [(31, 32, 149, 150)]

    def test_stimulus_inside_a_long_stretch(self, jumps):
        product = product_of(LATCH)
        # NOISE triggers no edge but is visible: the jump stops at tick 300
        # and asks again 32 steps later; GO at 900 ends the stretch
        stimulus = {300: frozenset({"NOISE"}), 900: frozenset({"GO"})}
        outcome = assert_engines_agree(product, 2000, stimulus)
        assert (outcome[0], outcome[3]) == ("shut", 1098)
        assert jumps == [(31, 32, 300, 301), (332, 333, 900, 901), (933, 32, 1999, 1098)]

    def test_location_left_only_by_a_trigger(self, jumps):
        product = product_of(LATCH)
        assert assert_engines_agree(product, 5000)[3] == 5000
        assert jumps == [(31, 32, 4999, 5000)]

    def test_frozen_part_re_anchored_mid_trajectory(self, jumps):
        # every 0.4 s the pulse restarts and freezes the heater, whose
        # witness restarts from its held value, and the other way round
        product = product_of(PULSED)
        assert_engines_agree(product, 20_000)
        assert len(jumps) > 100 and all(k == 32 for _, k, _, _ in jumps)

    def test_stuck_after_a_jump(self, jumps, fixtures_dir):
        net = load_model(fixtures_dir / "stucklate.pha")
        product = compose_all(compile_automaton(a, Fraction(1, 100))[0] for a in net.automata)
        _, _, tick_, _, _, k, _ = assert_engines_agree(product, 1000)
        assert (tick_, k) == (501, 501)
        assert jumps == [(31, 32, 500, 501)]


def plan(kind, op, bound, a="0", b="0"):
    a, b = Fraction(a), Fraction(b)
    if kind is WitnessKind.EXPONENTIAL:
        w = WitnessFunction(kind, "x", a=a, b=b, x_eq=-b / a)
    else:
        w = WitnessFunction(kind, "x", b=b)
    return LocationPlan("l", Constraint((Comparison("x", op, Fraction(bound)),)), 0, (("x", w),), (), ())


def first_failure_by_stepping(loc, c1, k, delta_f, steps):
    (_, w), = loc.witnesses
    (c,) = loc.invariant.conjuncts
    for j in range(k, k + steps):
        try:
            if not c.holds(w.value_at_tick(c1, j, delta_f)):
                return j
        except OverflowError:  # as the engines would raise
            return None
    return None


class TestHorizon:
    """`evolve_horizon` returns the first failing step, checked by stepping."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([WitnessKind.LINEAR, WitnessKind.EXPONENTIAL]),
        op=st.sampled_from(["<", "<=", ">", ">=", "=="]),
        rate=st.sampled_from(["-2", "-0.25", "-0.05", "0.05", "0.3", "1", "100"]),
        eq=st.sampled_from(["0", "3", "10", "10.000000001"]),
        bound=st.sampled_from(["0", "1", "3", "9.5", "10", "12"]),
        x0=st.floats(-20, 20, allow_nan=False),
        k=st.integers(1, 40),
        delta=st.sampled_from(DELTAS),
    )
    def test_matches_stepping(self, kind, op, rate, eq, bound, x0, k, delta):
        if kind is WitnessKind.LINEAR:
            loc = plan(kind, op, bound, b=rate)
            c1 = x0
        else:
            loc = plan(kind, op, bound, a=rate, b=str(-Fraction(rate) * Fraction(eq)))
            c1 = x0 - float(Fraction(eq))
        delta_f = float(delta)
        got = evolve_horizon(loc, {"x": c1}, k, delta_f)
        want = first_failure_by_stepping(loc, c1, k, delta_f, 5000)
        assert want is None or want >= got  # no step before the answer fails
        if kind is WitnessKind.EXPONENTIAL:
            end = int(700 / abs(float(Fraction(rate)) * delta_f))
            if k > end or got == end + 1:
                return  # past the trusted range of exp nothing is claimed
        if got < k + 5000:
            assert got == want

    def test_exact_landing_of_an_integer_clock(self):
        loc = plan(WitnessKind.LINEAR, "<=", "25", b="1")
        assert evolve_horizon(loc, {"x": 0.0}, 1, 0.01) == 2501  # 0.01 * 2500 rounds to 25.0
        assert first_failure_by_stepping(loc, 0.0, 2400, 0.01, 200) == 2501

    def test_a_value_moving_away_never_fails(self):
        assert evolve_horizon(plan(WitnessKind.LINEAR, ">=", "0", b="1"), {"x": 0.0}, 1, 0.01) == math.inf
        assert evolve_horizon(plan(WitnessKind.CONSTANT, "<=", "1"), {"x": 0.5}, 1, 0.01) == math.inf

    def test_a_failing_step_k_is_returned(self):
        assert evolve_horizon(plan(WitnessKind.LINEAR, "<=", "0", b="1"), {"x": 0.0}, 3, 0.01) == 3
