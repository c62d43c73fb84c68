"""The runners' fast-forward across evolve stretches.

The specialised runner jumps an evolve stretch to the last tick on
which it still evolves (`swa.evolve_horizon`, called through
`swa._Jump`), and a stretch it has seen in the same run jumps from
step 1 on the horizon it remembers; with a trace it writes the skipped
rows in batches, from value texts memoised per run.  Both runners ask
by that one rule, and both jump every whole period once a switch
configuration repeats with no stimulus between.  The generic engine
steps tick by tick.
These tests compare the final states bit for bit and the traces byte
for byte.
"""

import hashlib
import importlib.util
import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncha import swa
from syncha.codegen import emit_c, find_cc
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
from oracles import Inline, first_recurrence, fuzz_model, fuzz_network, timer_chain_source

DELTAS = (Fraction(1, 100), Fraction(1, 8), Fraction(1, 3))


def product_of(text, delta=Fraction(1, 100)):
    net = parse_model(text)
    return compose_all(compile_automaton(a, delta)[0] for a in net.automata)


def bits(values):
    return {var: x.hex() for var, x in values.items()}


def final(product, ticks, stimulus, engine, traced):
    """The final state with its values as bit patterns, or the stuck report, and the trace text."""
    out = io.StringIO() if traced else None
    try:
        st_ = simulate(product, ticks, stimulus, out=out, engine=engine)
    except UnreachableState as exc:
        state = ("stuck", str(exc), exc.tick, exc.state, bits(exc.valuation), exc.k, exc.visible)
    else:
        state = (st_.location, bits(st_.v), bits(st_.i), st_.k, st_.pending_pre)
    return state, out and out.getvalue()


def assert_engines_agree(product, ticks, stimulus=None):
    jumped, _ = final(product, ticks, stimulus, "compiled", traced=False)
    stepped, trace = final(product, ticks, stimulus, "generic", traced=True)
    assert jumped == stepped
    assert final(product, ticks, stimulus, "compiled", traced=True) == (jumped, trace)
    return jumped


class Jumps:
    """Every fast-forward call as (tick, step, tick landed on, step landed on), by trace mode.

    ``keys`` holds each untraced call's key, ``memo`` the horizon memo of the last call and
    ``batch`` the `_Batch` of the last traced call.  The two modes ask by one rule, so they
    make the same calls until a cycle jump moves one of them.
    """

    def __init__(self):
        self.untraced, self.traced, self.keys, self.memo, self.batch = [], [], [], None, None

    def each(self):
        """The calls of one trace mode, once both modes are checked to have made the same.

        They do whenever no cycle jump moves, as the two modes jump whole periods from
        different ticks.
        """
        assert self.untraced == self.traced
        return self.untraced

    def asked_at(self):
        """The step each untraced call would ask at: 32 on a key's first visit, 1 once it is stored."""
        seen = set()
        return [1 if key in seen or seen.add(key) else 32 for key in self.keys]


@pytest.fixture
def jumps(monkeypatch):
    calls = Jumps()
    real = swa._Jump.__call__

    def spy(self, t, k, nxt, ticks, key, memo, batch=None):
        result = real(self, t, k, nxt, ticks, key, memo, batch)
        (calls.untraced if batch is None else calls.traced).append((t, k, result[0], result[1]))
        if batch is None:
            calls.keys.append(key)
        calls.memo = memo
        if batch is not None:
            calls.batch = batch
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


SIGNS = """
network signs
automaton fade
  var x init 0
  var c init 0
  initial location decay
    invariant x >= 0 && c >= 0 && c <= 1
    flow x' = -0.5 * x
    flow c' = 1
  edge decay -> decay guard c == 1 do c' := 0, x' := -x
"""


DRIFT = """
network drift
automaton drifter
  var x init 0
  var c init 0
  initial location run
    invariant c >= 0 && c <= 1
    flow x' = 1
    flow c' = 1
  edge run -> run guard c == 1 do c' := 0
"""


TWINS = """
network twins
automaton blink
  var c init 0
  output FLIP
  initial location lit
    invariant c >= 0 && c <= 1
    flow c' = 1
  location dark
    invariant c >= 0 && c <= 1
    flow c' = 1
  edge lit -> dark guard c == 1 do c' := 0 emit FLIP
  edge dark -> lit guard c == 1 do c' := 0
"""

MIRROR = """
network mirror
automaton fade
  var x init 0
  var y init 0
  var c init 0
  initial location decay
    invariant x >= 0 && y <= 0 && c >= 0 && c <= 1
    flow x' = -0.5 * x
    flow y' = -0.5 * y
    flow c' = 1
  edge decay -> decay guard c == 1 do c' := 0, y' := -x
"""

RELAY = """
network relay
automaton lamp
  var x init 0
  var h init 2.5
  input GO
  output DONE
  initial location glow
    invariant x >= 0 && x <= 400
    flow x' = 1
    flow h' = 0
  edge glow -> glow guard x == 400 do x' := 0 emit DONE
  edge glow -> glow on GO do x' := 0, h' := h + 1
"""


FADE = """
network fade
automaton f
  var x init 10
  input NOISE
  initial location decay
    invariant x >= 0
    flow x' = -5 * x
"""


class Digest:
    """A trace sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


class TestTargeted:
    def test_integer_clock_lands_exactly_on_its_bound(self, jumps):
        # +1.0 a tick: x == 50 at step 50, the invariant fails at 51 and x snaps back to 50
        product = product_of(CLOCK)
        assert assert_engines_agree(product, 1000)[3] == 1000 % 52
        # ticks 32..50 would test steps 32..50; every later stretch re-enters at 0.0 and jumps at
        # step 1 on the horizon the memo holds
        first = [(31, 32, 50, 51)]
        again = [(52 * n, 1, 52 * n + 50, 51) for n in range(1, 19)] + [(988, 1, 999, 12)]
        # switch tick 103 repeats tick 51's configuration.  Without a trace 17 periods of 52 ticks
        # are jumped at once, to tick 987, the last repeat before the run's end; with one, the
        # period to tick 155 is stepped and its rows copied for the other 16
        assert jumps.untraced == first + again[:1] + again[-1:]
        assert Inline(product, 1000).cycles == [(103, 987)]
        assert jumps.traced == first + again[:2] + again[-1:]
        assert Inline(product, 1000, traced=True).cycles == [(155, 987)]
        # x's texts, first stored from step 32, grew back to step 1 when the stretch was re-entered:
        # one entry, under x's flow (the only one, number 0) and its entry constant +0.0
        assert [(key, first, len(texts)) for key, (first, texts) in jumps.batch.items()] == [
            ((0, 0.0, 1.0), 1, 50)]

    @pytest.mark.parametrize("op, eq", [
        ("<=", "10.000001"),  # crosses 10 after about 3,200 ticks
        ("<=", "10.000000000001"),  # creeps along 10, a few ulps a tick
        ("<", "10"),  # reaches the strict bound only by rounding
    ])
    def test_exponential_with_its_asymptote_just_past_a_bound(self, jumps, op, eq):
        product = product_of(CREEP.format(op=op, eq=eq))
        outcome = assert_engines_agree(product, 12_000)
        assert jumps.each() and jumps.each()[0][:2] == (31, 32)
        if op == "<=":
            assert outcome[0] == "rest"

    def test_run_ends_mid_stretch(self, jumps, thermostat_swa):
        outcome = assert_engines_agree(thermostat_swa, 150)
        assert outcome[:1] == ("cooling",) and outcome[3] == 150
        assert jumps.untraced == jumps.traced == [(31, 32, 149, 150)]

    def test_stimulus_inside_a_long_stretch(self, jumps):
        product = product_of(LATCH)
        # NOISE triggers no edge but is visible: the jump stops at tick 300 and asks again 32
        # steps later, on the horizon the memo holds by then; GO at 900 ends the stretch
        stimulus = {300: frozenset({"NOISE"}), 900: frozenset({"GO"})}
        outcome = assert_engines_agree(product, 2000, stimulus)
        assert (outcome[0], outcome[3]) == ("shut", 1098)
        assert jumps.each() == [(31, 32, 300, 301), (332, 333, 900, 901), (933, 32, 1999, 1098)]

    def test_location_left_only_by_a_trigger(self, jumps):
        product = product_of(LATCH)
        assert assert_engines_agree(product, 5000)[3] == 5000
        assert jumps.untraced == jumps.traced == [(31, 32, 4999, 5000)]

    def test_frozen_part_re_anchored_mid_trajectory(self, jumps):
        # every 0.4 s the pulse restarts and freezes the heater, whose
        # witness restarts from its held value, and the other way round
        product = product_of(PULSED)
        assert_engines_agree(product, 20_000)
        # the heater's c1 differs on every entry, so no key repeats and every stretch asks at 32
        assert len(jumps.each()) > 100
        assert [k for _, k, _, _ in jumps.each()] == jumps.asked_at() == [32] * len(jumps.each())

    def test_signed_zero_entries_print_apart(self, jumps):
        # x decays toward 0 from 0.0, and from -0.0 after every other switch: equal keys, other texts
        product = product_of(SIGNS)
        assert_engines_agree(product, 404)
        # -0.0 == 0.0 as a key: every stretch after the first jumps at step 1
        assert jumps.each() == [(31, 32, 100, 101), (102, 1, 202, 101), (204, 1, 304, 101), (306, 1, 403, 98)]
        rows = final(product, 404, None, "compiled", traced=True)[1].splitlines()[1:]
        xs = [row.split(",")[3] for row in rows]
        assert [set(xs[a:b]) for a, b in [(0, 101), (101, 203), (203, 305), (305, 404)]] == [{"0"}, {"-0"}] * 2

    def test_a_nan_entry_constant_is_not_memoised(self):
        # no run enters a NaN, but a NaN key never matches, so every stretch would add an entry
        product = product_of(DRIFT)
        out = io.StringIO()
        batch, jump = swa._Batch(out.write), swa._Jump(product)
        assert jump(31, 32, 100, 100, (0, math.nan, 0.0), {}, batch)[:2] == (99, 100)
        rows = [row.split(",") for row in out.getvalue().splitlines()]
        assert [row[0] for row in rows] == [str(t) for t in range(32, 100)]
        assert {row[3] for row in rows} == {"nan"} and [row[4] for row in rows[:2]] == ["0.32", "0.33"]
        # x and c share one flow, x' = c' = 1; only c's entry at 0.0 is stored, none under x's NaN
        assert jump.state(0)[2] == (0, 0) and list(batch) == [(0, 0.0, 1.0)]

    def test_signed_zero_entries_share_one_horizon(self, jumps):
        product = product_of(SIGNS)
        rows = final(product, 404, None, "compiled", traced=True)[1].splitlines()[1:]
        assert jumps.memo == {(0, 0.0, 0.0): 101}
        assert [rows[i].split(",")[3] for i in (50, 150, 250, 350)] == ["0", "-0", "0", "-0"]
        run = Inline(product, 404)
        assert jumps.memo == run.memo == {(0, 0.0, 0.0): 101}
        # the first stretch asks at step 32, the others at step 1, each from its own signed constant
        assert [math.copysign(1.0, key[1]) for key in jumps.keys] == [1.0, -1.0, 1.0, -1.0]
        assert math.copysign(1.0, run.state.v["x"]) == -1.0

    def test_locations_with_one_witness_share_its_texts(self, jumps):
        # lit and dark both run c' = 1 from c = 0, so their stretches write the same value texts
        product = product_of(TWINS)
        assert_engines_agree(product, 1000)
        assert jumps.traced[:2] == [(31, 32, 100, 101), (133, 32, 202, 101)]  # one stretch in each
        assert jumps.keys[:2] == [(0, 0.0), (1, 0.0)]
        assert [(key, first, len(texts)) for key, (first, texts) in jumps.batch.items()] == [
            ((0, 0.0, 1.0), 1, 100)]

    def test_one_witness_entered_at_both_zeros_prints_apart(self, jumps):
        # x and y share a flow; after the first switch y enters at -0.0 beside x at 0.0
        product = product_of(MIRROR)
        assert_engines_agree(product, 1000)
        assert jumps.keys[:2] == [(0, 0.0, 0.0, 0.0), (0, 0.0, -0.0, 0.0)]
        assert sorted(jumps.batch) == [(0, -0.0, -1.0), (0, 0.0, 1.0), (1, 0.0, 1.0)]
        rows = final(product, 1000, None, "compiled", traced=True)[1].splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"0"}
        assert [row.split(",")[4] for row in rows[100:103]] == ["0", "-0", "-0"]

    @pytest.mark.parametrize("delta", DELTAS)
    def test_a_jump_spans_blocks_beside_a_held_value(self, jumps, delta):
        # stretches of 400/delta steps: at each delta the first and the one GO starts at tick 2001
        # are longer than a block.  h is held at 2.5, then at 3.5.  DONE is emitted only at 1/8
        # and 1/3, where a stretch ends within the run
        stimulus = {2000: frozenset({"GO"})}
        product = product_of(RELAY, delta)
        assert assert_engines_agree(product, 6000, stimulus)[0] == "glow"
        assert max(t1 - t0 for t0, _, t1, _ in jumps.traced) > swa._BLOCK
        rows = [row.split(",") for row in final(product, 6000, stimulus, "compiled", traced=True)[1].splitlines()]
        assert rows[0] == ["tick", "time", "location", "x", "h", "inputs", "outputs"]
        assert {row[4] for row in rows[1:2002]} == {"2.5"} and {row[4] for row in rows[2002:]} == {"3.5"}
        assert [(row[0], row[5]) for row in rows[1:] if row[5]] == [("2001", "GO")]
        assert {row[6] for row in rows[1:]} == ({""} if delta == Fraction(1, 100) else {"", "DONE"})

    def test_a_nan_entry_constant_stores_no_horizon(self):
        jump, memo = swa._Jump(product_of(DRIFT)), {}
        assert jump(31, 32, 100, 100, (0, math.nan, 0.0), memo)[:2] == (99, 100)
        assert jump(31, 32, 100, 100, (0, 0.0, 0.0), memo)[:2] == (99, 100)
        assert memo == {(0, 0.0, 0.0): 101}  # c passes 1 at step 101 either way

    def test_the_horizon_memo_is_bounded(self, jumps, monkeypatch):
        # x grows without bound, so every stretch of DRIFT enters with a new key
        monkeypatch.setattr(swa, "_HORIZONS_MAX", 5)
        product = product_of(DRIFT)
        assert_engines_agree(product, 2000)
        assert len(jumps.each()) == 20 and len(set(jumps.keys)) == 20
        assert len(jumps.memo) == 5 and [k for _, k, _, _ in jumps.each()] == [32] * 20

    def test_the_horizon_memo_lives_for_one_run(self, jumps, thermostat_swa):
        first = Inline(thermostat_swa, 5000)
        calls, keys, jumps.untraced[:], jumps.keys[:] = list(jumps.untraced), list(jumps.keys), [], []
        second = Inline(thermostat_swa, 5000)
        # each run asks `_Jump` on each key's first visit at step 32, and on its re-entries at step 1
        assert jumps.untraced == calls and jumps.keys == keys and calls[0][:2] == (31, 32)
        assert [k for _, k, _, _ in calls] == jumps.asked_at() and {1, 32} <= {k for _, k, _, _ in calls}
        assert second.memo == first.memo and set(keys) <= first.memo.keys()

    def test_the_configuration_memo_lives_for_one_run(self, thermostat_swa):
        # a memo kept across runs would see the first configuration again at once, a period of 0
        first, second = Inline(thermostat_swa, 5000), Inline(thermostat_swa, 5000)
        assert first.cycles == second.cycles == [(607, 4667)]
        assert first.seen == second.seen and len(first.seen) == 2
        traced = Inline(thermostat_swa, 5000, traced=True), Inline(thermostat_swa, 5000, traced=True)
        assert [run.cycles for run in traced] == [[(1013, 4667)]] * 2 and traced[0].seen == first.seen

    def test_a_horizon_past_the_trusted_range_is_not_jumped_back_to(self, jumps):
        # x >= 0 never fails, but exp is trusted only up to step 700 / (5 * 0.01) = 14,000, so the
        # horizon is 14,001; NOISE cuts the jump short at step 13,991.  The runner asks again at
        # 14,023, stays, and steps
        stimulus = {13_990: frozenset({"NOISE"})}
        product = product_of(FADE)
        assert assert_engines_agree(product, 14_100, stimulus)[3] == 14_100
        assert jumps.each() == [(31, 32, 13_990, 13_991), (14_022, 14_023, 14_022, 14_023)]

    def test_a_long_stretch_is_written_in_bounded_memory(self):
        # 200,000 distinct texts: the memo stops storing at 2**16, and rows go out in blocks
        product = product_of(LATCH)
        stepped, jumped = Digest(), Digest()
        simulate(product, 200_000, out=stepped, engine="generic")
        simulate(product, 10, out=Digest())  # builds the runner outside the measurement
        tracemalloc.start()
        try:
            simulate(product, 200_000, out=jumped)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert jumped.sha.digest() == stepped.sha.digest()
        assert peak < 8 * 2**20, peak

    def test_stuck_after_a_jump(self, jumps, fixtures_dir):
        net = load_model(fixtures_dir / "stucklate.pha")
        product = compose_all(compile_automaton(a, Fraction(1, 100))[0] for a in net.automata)
        _, _, tick_, _, _, k, _ = assert_engines_agree(product, 1000)
        assert (tick_, k) == (501, 501)
        assert jumps.untraced == jumps.traced == [(31, 32, 500, 501)]


SHORT_CLOCK = """
network bell
automaton ring
  var x init 0
  input GO NOISE
  initial location run
    invariant x >= 0 && x <= {top}
    flow x' = 100
  edge run -> run guard x == {top} do x' := 0
  edge run -> run on GO do x' := 0
"""

BIG = "1" + "0" * 200

NAN = f"""
network nanny
automaton n
  var x init {BIG}
  var c init 0
  initial location grow
    invariant c >= 0 && c <= 0.2
    flow x' = 0
    flow c' = 1
  location decay
    invariant x >= 0 && c >= 0 && c <= 0.2
    flow x' = -5000 * x
    flow c' = 1
  location hold
    invariant c >= 0 && c <= 0.2
    flow x' = 0
    flow c' = 1
  edge grow -> decay guard c == 0.2 do c' := 0, x' := {BIG} * x
  edge decay -> hold guard c >= 0
  edge hold -> hold guard c == 0.2 do c' := 0
"""

# a part that adds a trigger (RING) and an event no edge listens to (DING) to any network
CHIME = """
automaton chime
  var b init 0
  input RING
  output DING
  initial location idle
    invariant b >= 0 && b <= 0
    flow b' = 0
  edge idle -> idle on RING
"""


def assert_horizons_exact(product, memo):
    """Every memo entry's steps before its horizon pass the evolve test with no event, and the horizon fails it."""
    plan_ = swa.switch_plan(product)
    for (j, *c1), fail in memo.items():
        c1 = dict(zip(product.variables, c1))

        def passes(step):
            values = {var: w.value_at_tick(c1[var], step, product.delta_f)
                      for loc in plan_.at(j) for var, w in loc.witnesses}
            return all(swa._can_evolve(loc, values, 0) for loc in plan_.at(j))

        assert all(map(passes, range(1, min(fail, 10_000))))
        assert fail == math.inf or not passes(fail)


class TestLearned:
    """What a run learns: horizons only from `_Jump` calls, and its switch configurations.

    A stretch whose key the memo lacks asks `_Jump` only at step `_JUMP_AFTER`, traced or not, so
    shorter stretches are stepped to their end and store nothing; a periodic run of them is
    skipped by the cycle jump instead.
    """

    # A schedule is the cycle jumps without and with a trace; no stretch of 21 steps asks `_Jump`.
    # A switch tick more than 32 ticks before the next stimulus, or the run's end, is kept, and the
    # first to repeat one kept since the stimulus jumps a period of 22 ticks.  With a trace it first
    # collects one more period, and only when a whole period follows it.
    @pytest.mark.parametrize("stimulus, schedule", [
        # NOISE on tick 20 comes before switch tick 21, which is kept, and tick 43 repeats it
        ({20: "NOISE"}, ([(43, 87)], [(65, 87)])),
        # a second NOISE on tick 64: tick 43 is within 32 ticks of it and tick 87 of the run's end,
        # so no configuration is seen twice between two stimuli
        ({20: "NOISE", 64: "NOISE"}, ([], [])),
        # tick 21 is within 32 ticks of NOISE; tick 65 repeats tick 43, and no whole period follows
        ({30: "NOISE"}, ([(65, 87)], [])),
        ({22: "NOISE"}, ([(65, 87)], [])),
        # GO, visible on tick 36, ends the stretch at step 14 and restarts the orbit: 58 repeats 36
        ({35: "GO"}, ([(58, 80)], [])),
    ])
    def test_events_in_short_stretches(self, jumps, stimulus, schedule):
        product = product_of(SHORT_CLOCK.format(top=20))
        stimulus = {t: frozenset({e}) for t, e in stimulus.items()}
        assert_engines_agree(product, 100, stimulus)
        runs = Inline(product, 100, stimulus), Inline(product, 100, stimulus, traced=True)
        assert tuple(run.cycles for run in runs) == schedule and [run.memo for run in runs] == [{}, {}]
        assert jumps.untraced == jumps.traced == []

    def test_a_learned_signed_zero(self):
        # 21 steps, entered at 0.0 and -0.0 in turn: the configuration memo tells them apart by
        # their bits, so the period is two stretches, and the run ends at -0.0 as stepping does
        product = product_of(SIGNS.replace("c <= 1", "c <= 0.2").replace("c == 1", "c == 0.2"))
        outcome = assert_engines_agree(product, 250)
        rows = final(product, 250, None, "generic", traced=True)[1].splitlines()[1:]
        assert [rows[t].split(",")[3] for t in (10, 30, 50, 70)] == ["0", "-0", "0", "-0"]
        run = Inline(product, 250)
        assert run.memo == {} and run.cycles == [(65, 241)] and len(run.seen) == 2
        assert Inline(product, 250, traced=True).cycles == [(109, 241)]
        assert outcome[1]["x"] == (-0.0).hex() and math.copysign(1.0, run.state.v["x"]) == -1.0

    def test_a_nan_entry_constant_is_not_learned(self):
        # x overflows to inf on entering decay, and inf * exp(-50 k) is NaN once exp underflows;
        # no stretch reaches step 32.  In hold the NaN's bits repeat, and so does the configuration
        product = product_of(NAN)
        outcome = assert_engines_agree(product, 300)
        assert outcome[0] == "hold" and outcome[1]["x"] == "nan"
        run = Inline(product, 300)
        assert run.memo == {} and run.cycles == [(66, 286)]
        assert Inline(product, 300, traced=True).cycles == [(88, 286)]

    @pytest.mark.parametrize("limit", [0, 1, 5])
    def test_learned_horizons_obey_the_memo_bound(self, jumps, monkeypatch, limit):
        # x grows without bound, so every 101-step stretch enters with a new key and asks at step 32
        monkeypatch.setattr(swa, "_HORIZONS_MAX", limit)
        product = product_of(DRIFT)
        assert_engines_agree(product, 1000)
        assert [k for _, k, _, _ in jumps.each()] == [32] * 10
        run = Inline(product, 1000)
        assert len(run.memo) == limit
        assert_horizons_exact(product, run.memo)
        # nor does a switch configuration repeat: the first switch tick after `limit` are kept
        # misses on a full memo, and the run looks nothing up from then on, traced or not
        for run in run, Inline(product, 1000, traced=True):
            assert (len(run.seen), run.far, run.cycles) == (limit, 1000, [])

    def test_a_timer_chain_asks_alike_traced_or_not(self, jumps):
        product = product_of(timer_chain_source(3))
        # E2, which no part listens to, every 100 ticks: no configuration repeats twice between two
        # stimuli, so no cycle jump moves, and both runners make the same `_Jump` calls: none, as
        # no stretch of the chain reaches step 32.  Both step every tick
        stimulus = {t: frozenset({"E2"}) for t in range(50, 5000, 100)}
        assert_engines_agree(product, 5000, stimulus)
        runs = Inline(product, 5000, stimulus), Inline(product, 5000, stimulus, traced=True)
        assert jumps.each() == [] and [(run.cycles, run.stepped, run.memo) for run in runs] == [([], 5000, {})] * 2
        # with no stimulus tick 111 repeats tick 53's configuration: one cycle jump takes the run to
        # its last period
        assert Inline(product, 5000).cycles == [(111, 4983)]


class TestCycles:
    """A switch configuration seen again with no stimulus since jumps every whole period.

    Without a trace the run jumps at once.  With one it steps one more period, then writes that
    period's rows again for every whole period left, each with its own tick and time.
    """

    def test_a_signed_zero_is_no_repeat(self):
        # every other stretch enters x at -0.0, a configuration equal to the 0.0 one as floats: a
        # key of floats takes one stretch (102 ticks) for the period and ends this run at x = 0.0;
        # by bit patterns the period is two stretches, and the jump is three periods
        product = product_of(SIGNS)
        assert assert_engines_agree(product, 1003)[1]["x"] == (-0.0).hex()
        run = Inline(product, 1003)
        assert run.cycles == [(305, 305 + 3 * 204)]
        assert sorted(key[3] for key in run.seen) == [struct.pack("<2d", x, 0.0) for x in (0.0, -0.0)]
        # with a trace the period to tick 509 is stepped, and its rows, "0" and "-0" alike, are copied
        traced = Inline(product, 1003, traced=True)
        assert traced.cycles == [(509, 917)] and traced.seen == run.seen
        assert {row.split(",")[3] for row in traced.trace.splitlines()[510:918]} == {"0", "-0"}

    def test_pending_events_are_part_of_the_configuration(self):
        # switch ticks 10 and 11 leave the same state and values, the first with an event pending:
        # a key without the events takes 1 tick for the period and ends this run elsewhere
        product = product_of(fuzz_network(68), Fraction(1, 3))
        assert_engines_agree(product, 3000)
        run = Inline(product, 3000)
        assert run.cycles == [(30, 2973)] and {t: key[1:3] for key, t in run.seen.items() if t in (10, 11)} == {
            10: (5, 8), 11: (5, 0)}
        assert Inline(product, 3000, traced=True).cycles == [(57, 2973)]

    def test_a_stimulus_after_a_recurrence(self, jumps):
        # the cycle jump from tick 43 lands on 153, the tick before NOISE; stepping resumes, and a
        # configuration seen twice after NOISE jumps again.  No stretch of 21 steps asks `_Jump`
        product = product_of(SHORT_CLOCK.format(top=20))
        stimulus = {154: frozenset({"NOISE"})}
        assert_engines_agree(product, 300, stimulus)
        run = Inline(product, 300, stimulus)
        assert run.cycles == [(43, 153), (197, 285)] and jumps.untraced == jumps.traced == []
        assert [key[0] for key in run.seen] == [0, 1]  # one configuration per stimulus interval
        # with a trace each jump starts one period of 22 ticks later and lands on the same tick
        assert Inline(product, 300, stimulus, traced=True).cycles == [(65, 153), (219, 285)]

    # Switch tick 43 repeats tick 21's configuration.  Without a trace the run jumps the whole
    # periods that end before the stimulus tick; with one it collects ticks 44 .. 65 only when a
    # whole period follows them and the gate passes on tick 65, the stimulus more than 32 ticks on.
    # After the stimulus the orbit's switch ticks are 22 apart again, and both runs jump to 197.
    @pytest.mark.parametrize("tick, untraced, traced", [
        (60, [(87, 197)], [(109, 197)]),  # inside the period a traced run would collect
        (95, [(43, 87), (131, 197)], [(153, 197)]),  # two periods fit, but 65 is 30 ticks from it
        (100, [(43, 87), (131, 197)], [(65, 87), (153, 197)]),
    ])
    def test_a_stimulus_near_a_recurrence(self, tick, untraced, traced):
        product = product_of(SHORT_CLOCK.format(top=20))
        stimulus = {tick: frozenset({"NOISE"})}
        assert_engines_agree(product, 200, stimulus)
        assert Inline(product, 200, stimulus).cycles == untraced
        assert Inline(product, 200, stimulus, traced=True).cycles == traced

    @pytest.mark.parametrize("ticks, untraced, traced", [
        (200, [(103, 155)], []),  # no whole period would follow the one a traced run collects
        (220, [(103, 207)], [(155, 207)]),  # both land on 207 and step to the end, mid-period
    ])
    def test_a_run_ending_mid_period(self, ticks, untraced, traced):
        product = product_of(CLOCK)
        assert_engines_agree(product, ticks)
        assert Inline(product, ticks).cycles == untraced
        assert Inline(product, ticks, traced=True).cycles == traced

    @pytest.mark.parametrize("block, traced", [(51, []), (52, [(155, 987)])])
    def test_a_period_longer_than_a_block_is_stepped(self, monkeypatch, block, traced):
        # CLOCK's period is 52 ticks: a traced run collects at most `_BLOCK` rows
        monkeypatch.setattr(swa, "_BLOCK", block)
        product = product_of(CLOCK)
        assert_engines_agree(product, 1000)
        assert Inline(product, 1000).cycles == [(103, 987)]
        assert Inline(product, 1000, traced=True).cycles == traced

    @pytest.mark.parametrize("model", ["thermostat", "watertank", "traingate"])
    def test_the_first_recurrence_jumps(self, model):
        # with no stimulus every configuration is kept from the first switch on, so the untraced run
        # jumps on the first recurrence; the traced one a period later, unless that is over `_BLOCK`
        product = product_of((Path(swa.__file__).parent / "models" / f"{model}.pha").read_text())
        t, period = first_recurrence(product, 20_000)
        assert Inline(product, 20_000).cycles[0][0] == t
        landing = t + (19_999 - t) // period * period  # the last repeat before the run's end
        traced = [(t + period, landing)] if period <= swa._BLOCK else []
        assert Inline(product, 20_000, traced=True).cycles[:1] == traced

    @pytest.mark.parametrize("limit, seen, cycles", [
        (None, 2, [(43, 153), (197, 285)]),
        (1, 1, [(43, 153)]),  # the configuration after NOISE is not kept
        (0, 0, []),  # no configuration is kept
    ])
    def test_the_configuration_memo_is_bounded(self, monkeypatch, limit, seen, cycles):
        if limit is not None:
            monkeypatch.setattr(swa, "_HORIZONS_MAX", limit)
        product = product_of(SHORT_CLOCK.format(top=20))
        stimulus = {154: frozenset({"NOISE"})}
        assert_engines_agree(product, 300, stimulus)
        run = Inline(product, 300, stimulus)
        assert len(run.seen) == seen and run.cycles == cycles
        # with a limit, a configuration after NOISE misses on a full memo and ends the lookups
        assert run.far == (swa._JUMP_AFTER if limit is None else 300)

    def test_a_billion_ticks_of_a_timer_chain(self):
        # criterion 8's scale, and a hundred times more: the run steps only until its orbit repeats
        product = product_of(timer_chain_source(4))
        # the states after ticks t - period and t are equal, so from tick t on they repeat
        t, period = first_recurrence(product, 10_000)
        ticks = 10**9
        jumped = final(product, ticks, None, "compiled", traced=False)[0]
        assert jumped == final(product, t + 1 + (ticks - t - 1) % period, None, "generic", traced=False)[0]
        run = Inline(product, ticks)
        assert run.stepped < 2000 and len(run.cycles) == 1, (run.stepped, run.cycles)


BUNDLED = [path.read_text() for path in sorted((Path(swa.__file__).parent / "models").glob("*.pha"))]


@settings(max_examples=40, deadline=None)
@given(
    source=st.one_of(st.integers(2, 4).map(timer_chain_source), st.sampled_from([SIGNS, CLOCK, *BUNDLED])),
    delta=st.sampled_from(DELTAS),
    ticks=st.integers(1, 20_000),
    data=st.data(),
)
def test_cycle_jumps_are_exact(source, delta, ticks, data):
    """Runs that jump whole periods end as the generic engine does, bit for bit, and write its trace.

    Most networks here repeat their switch configuration within a few hundred ticks, so
    most stimulus ticks fall after the first recurrence.  NOISE is no event of any network.
    At δ = 1/3 the time field is ``%.15g``.
    """
    product = product_of(source, delta)
    events = st.frozensets(st.sampled_from(sorted(product.events()) + ["NOISE"]), min_size=1, max_size=2)
    stimulus = data.draw(st.dictionaries(st.integers(0, ticks), events, max_size=8))
    assert_engines_agree(product, ticks, stimulus)


@settings(max_examples=60, deadline=None)
@given(
    source=st.one_of(st.integers(2, 4).map(timer_chain_source),
                     st.integers(0, 3000).map(lambda seed: fuzz_model(3 * seed + 2))),  # clocked models
    delta=st.sampled_from(DELTAS),
    ticks=st.integers(1, 3000),
    limit=st.sampled_from([None, 0, 1, 3]),
    data=st.data(),
)
def test_learned_horizons_are_exact(source, delta, ticks, limit, data):
    """Runs that store and reuse stretch horizons end as the generic engine does, bit for bit.

    Stimulus ticks fall inside stretches, as switch ticks are few: RING ends a stretch, DING
    and the chains' last event only cut a jump short, and the chains' other events can get a
    busy timer stuck.  A `limit` bounds both memos; the horizons a run keeps are exact.
    """
    product = product_of(source + CHIME, delta)
    events = st.frozensets(st.sampled_from(sorted(product.events())), min_size=1, max_size=2)
    stimulus = data.draw(st.dictionaries(st.integers(0, ticks), events, max_size=8))
    with mock.patch.object(swa, "_HORIZONS_MAX", swa._HORIZONS_MAX if limit is None else limit):
        if assert_engines_agree(product, ticks, stimulus)[0] != "stuck":
            run = Inline(product, ticks, stimulus)
            assert len(run.memo) <= swa._HORIZONS_MAX and len(run.seen) <= swa._HORIZONS_MAX
            assert_horizons_exact(product, run.memo)


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


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([WitnessKind.LINEAR, WitnessKind.EXPONENTIAL]),
    rate=st.sampled_from(["-2", "-0.05", "0.3", "100"]),
    eq=st.sampled_from(["0", "3", "10.000000001"]),
    c1=st.floats(-1e6, 1e6, allow_nan=False),
    lo=st.integers(0, 10**5),
    delta=st.sampled_from(DELTAS),
)
def test_batched_values_are_value_at_tick(kind, rate, eq, c1, lo, delta):
    """The batch writer's C loops give `value_at_tick`'s doubles, bit for bit."""
    (_, w), = plan(kind, "<=", "0", a=rate, b=str(-Fraction(rate) * Fraction(eq))).witnesses
    delta_f, steps = float(delta), range(lo, lo + 50)
    assume(kind is WitnessKind.LINEAR or abs(float(rate) * delta_f * steps[-1]) < 700)  # exp overflows past it
    want = [w.value_at_tick(c1, s, delta_f).hex() for s in steps]
    assert [x.hex() for x in swa._witness_values(w, c1, steps, delta_f)] == want


@settings(max_examples=200, deadline=None)
@given(
    delta=st.sampled_from([*DELTAS, Fraction(1), Fraction(1, 10), Fraction(1, 1000), Fraction(5, 2)]),
    start=st.one_of(st.integers(0, 3000), st.integers(0, 10**12)),
    n=st.integers(1, 2500),
)
def test_stamps_are_tick_and_time_fields(delta, start, n):
    """The batch writer starts each row with the tick and `time_field`, from templates at 1/10**j too."""
    ticks = range(start, start + n)
    stamps = swa._Jump(product_of(LATCH, delta)).stamps(ticks)
    assert list(stamps) == [f"{t},{swa.time_field(t, delta)}," for t in ticks]


def run_script(name, *args):
    """The standard output of ``scripts/<name>`` run with `args`, with the package on its path."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / name), *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_trace_probe_prints_a_row_per_bundled_model():
    header, *rows = run_script("trace_probe.py", "--ticks", "2000", "--repeat", "1").splitlines()
    assert header.split()[:2] == ["model", "traced"]
    assert header.split()[-4:] == ["texts", "distinct", "rows", "batched"]
    assert [row.split()[0] for row in rows] == ["thermostat", "traingate", "watertank"]
    assert all(float(row.split()[-1].rstrip("%")) > 50 for row in rows), rows
    # thermostat's x shows 404 distinct texts in 2,000 rows, and its jumps format 402 texts
    assert rows[0].split()[-3:-1] == ["402", "404"]


def test_trace_probe_fails_when_the_engines_differ(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "trace_probe.py"
    spec = importlib.util.spec_from_file_location("trace_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.main(["--ticks", "200", "--repeat", "1"]) == 0
    monkeypatch.setattr(swa._Jump, "stamps", lambda self, ticks: ["0,0,"] * len(ticks))  # every jumped row at tick 0
    assert probe.main(["--ticks", "200", "--repeat", "1"]) == 1
    assert "differs from the generic engine's: thermostat, traingate, watertank" in capsys.readouterr().err


def test_dwell_sweep_prints_a_row_per_bundled_location():
    blocks = [block.splitlines() for block in run_script("dwell_sweep.py", "--delta", "1/100").strip().split("\n\n")]
    nets = [load_model(path) for path in sorted((Path(swa.__file__).parent / "models").glob("*.pha"))]
    want = [(f"{net.name}.{ha.name}", [loc.name for loc in ha.locations]) for net in nets for ha in net.automata]
    assert [(name, [row.split()[0] for row in rows]) for name, _, *rows in blocks] == want
    # a bounded location gets a step bound at 1/100, an unbounded one needs fairness
    cells = [row.split()[1:] for _, _, *rows in blocks for row in rows]
    assert all(cell == ["unbounded", "needs", "fairness"] or int(cell[1]) > 0 for cell in cells), cells
    assert ["unbounded", "needs", "fairness"] in cells and ["2.00671", "201"] in cells


def test_stretch_probe_prints_a_row_per_network():
    out = run_script("stretch_probe.py", "--ticks", "2000", "--repeat", "1", "--chains", "2", "3")
    header, *rows = out.splitlines()
    assert header.split()[:3] == ["network", "stretches", "keys"] and "recurs at period" in header
    assert [row.split()[0] for row in rows] == ["thermostat", "traingate", "watertank", "chain2", "chain3"]
    # chain2: 141 stretches over 4 keys, so all but 4 re-enter one; switch tick 87 repeats tick 31's
    # configuration, and the runner jumps whole periods from there without a trace and from one
    # period later with one; traingate's first recurrence comes after tick 2000
    assert rows[3].split()[1:4] == ["141", "4", "137"] and rows[3].split()[5:9] == ["87", "56", "87", "143"]
    assert rows[1].split()[5:9] == ["-"] * 4


@pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")
def test_c_probe_prints_a_row_per_bundled_model(models_dir):
    header, *rows = run_script("c_probe.py", "--ticks", "2000", "--repeat", "1").splitlines()
    assert header.split() == ["model", "C", "ticks/s", "C", "bytes", "formatted", "distinct", "minor", "faults"]
    assert [row.split()[0] for row in rows] == ["thermostat", "traingate", "watertank"]
    # the C source bytes are the automaton's and the driver's at the probe's delta
    for row in rows:
        net = load_model(models_dir / f"{row.split()[0]}.pha")
        unit = emit_c(compose_all(compile_automaton(ha, Fraction(1, 100))[0] for ha in net.automata))
        assert int(row.split()[2]) == len(unit.automaton_source) + len(unit.driver_source)
    # every distinct value is formatted at least once, and thermostat's 404 are formatted once each
    assert all(int(row.split()[3]) >= int(row.split()[4]) > 0 for row in rows), rows
    assert rows[0].split()[3:5] == ["404", "404"]
    assert all(len(row.split()) == 6 and int(row.split()[5]) > 0 for row in rows), rows  # one run's minor faults
