import gc
import io
import math
import re
import subprocess
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncha.cli import main
from syncha.codegen import build_binary, emit_c, find_cc
from syncha.expr import AffineExpr
from syncha.model import load_model, parse_model
from syncha.swa import (
    SwaState,
    UnreachableState,
    _build_runner,
    _eval_update,
    _runner_source,
    build_swa,
    compile_automaton,
    compose,
    compose_all,
    decimal_delta,
    initial_exec_state,
    parse_stimulus,
    run,
    run_compiled,
    simulate,
    switch_plan,
    tick,
    time_field,
    trace_header,
)
from syncha.shagen import generate_sha
from oracles import fuzz_network, parse_trace, product_run

DELTA = Fraction(1, 100)


def trace_text(swa, ticks, stimulus=None, engine="auto"):
    buf = io.StringIO()
    simulate(swa, ticks, stimulus=stimulus, out=buf, engine=engine)
    return buf.getvalue()


def comp(net, name, delta=DELTA):
    swa, _ = compile_automaton(net.automaton(name), delta)
    return swa


class TestBuild:
    def test_tank_lowering(self, tank_swa):
        assert [s.name for s in tank_swa.states] == ["t1", "t2", "t3", "t4"]
        assert tank_swa.initial_state == "t1"
        assert tank_swa.delta == DELTA
        assert tank_swa.parts == ()
        for s in tank_swa.states:
            assert s.self_transition.absent == ("ON", "OFF")
            for tr in s.egress:
                assert len(tr.guard_groups) == 1
                assert tr.saturable == (True,)
        assert [len(s.egress) for s in tank_swa.states] == [1, 2, 1, 2]

    def test_single_state_no_edges(self):
        net = parse_model(
            """
network lone

automaton solo
  var x init 1

  initial location only
    invariant x == 1
    flow x' = 0
"""
        )
        swa = comp(net, "solo")
        (state,) = swa.states
        assert state.egress == ()
        assert state.self_transition.absent == ()

    def test_foreign_variable_read_rejected(self):
        net = parse_model(
            """
network peeking

automaton a
  var x init 0

  initial location go
    invariant x >= 0
    flow x' = 1

  edge go -> go guard y == 1

automaton b
  var y init 0

  initial location idle
    invariant y == 0
    flow y' = 0
"""
        )
        sha, _ = generate_sha(net.automaton("a"), DELTA)
        with pytest.raises(ValueError, match="reads variables it does not own"):
            build_swa(sha)

    def test_events_listing(self, tank_swa, burner_swa):
        assert tank_swa.events() == ("ON", "OFF")
        assert burner_swa.events() == ("ON", "OFF")

    def test_unknown_state_lookup(self, tank_swa):
        with pytest.raises(KeyError, match="no state"):
            tank_swa.state("t9")


class TestTick:
    def test_constant_hold_increments_k(self, tank_swa):
        st = initial_exec_state(tank_swa)
        st, emitted = tick(tank_swa, st)
        assert (st.location, st.k, emitted) == ("t1", 1, frozenset())
        assert st.v == {"x": 20.0}

    def test_trigger_blocks_evolution_and_fires_edge(self, tank_swa):
        st = initial_exec_state(tank_swa)
        st, _ = tick(tank_swa, st, inputs=frozenset({"ON"}))
        assert st.pending_pre == frozenset({"ON"})
        st, emitted = tick(tank_swa, st)
        assert st.location == "t2"
        assert st.k == 0
        assert st.i == {"x": 20.0}
        assert emitted == frozenset()

    def test_heating_follows_the_witness(self, tank_swa):
        st = initial_exec_state(tank_swa)
        st, _ = tick(tank_swa, st, inputs=frozenset({"ON"}))
        st, _ = tick(tank_swa, st)
        st, _ = tick(tank_swa, st)
        assert st.location == "t2" and st.k == 1
        assert st.v["x"] == pytest.approx(150 - 130 * math.exp(-0.00075), rel=1e-15)

    def test_stimulus_trace_rows(self, tank_swa):
        text = trace_text(tank_swa, 10, stimulus={5: frozenset({"ON"})})
        header, rows = parse_trace(text)
        assert header == ["tick", "time", "location", "x", "inputs", "outputs"]
        assert [r.location for r in rows] == ["t1"] * 6 + ["t2"] * 4
        assert rows[6].inputs == ("ON",)
        assert rows[6].values == (20.0,)  # switch rows show post-jump values
        assert rows[7].values == (20.0,)  # evolution rows show the old commit
        assert rows[8].values[0] == pytest.approx(20.097463446638898, rel=1e-13)
        assert rows[3].time == pytest.approx(0.03)

    def test_update_shapes(self):
        val = {"x": 7.0}
        assert _eval_update(AffineExpr(Fraction(0), Fraction(3), "x"), val) == 3.0
        assert _eval_update(AffineExpr(Fraction(1), Fraction(0), "x"), val) == 7.0
        assert _eval_update(AffineExpr(-Fraction(1), Fraction(0), "x"), val) == -7.0
        assert _eval_update(AffineExpr(Fraction(2), Fraction(1), "x"), val) == 15.0
        assert _eval_update(AffineExpr(Fraction(1), Fraction(5), "x"), val) == 12.0


class TestSaturation:
    def test_ramp_snaps_to_the_guard_bound(self, fixtures_dir):
        net = load_model(fixtures_dir / "satramp.pha")
        swa = comp(net, "ramp", delta=Fraction(1))
        text = trace_text(swa, 8)
        _, rows = parse_trace(text)
        values = [r.values[0] for r in rows]
        assert values[:5] == [0.0, 10.3, 20.6, 30.9, 41.2]
        assert values[5] == 50.0  # exact, not 51.5
        assert max(values) <= 50.0
        assert [r.location for r in rows] == ["rising"] * 5 + ["capped"] * 3
        assert "50," in text and "51.5" not in text

    def test_strict_bounds_are_never_snapped_onto(self):
        # x falls from 6 past both 5 and 3 in one tick; only x == 5 may snap,
        # and 5 > 3 then holds, so the edge fires with x = 5
        swa = comp(parse_model("""
network plunge

automaton fall
  var x init 6

  initial location down
    invariant x >= 5
    flow x' = -35

  location landed
    invariant x == 5
    flow x' = 0

  edge down -> landed guard x > 3 && x == 5
"""), "fall", delta=Fraction(1, 10))
        traces = [trace_text(swa, 4, engine=engine) for engine in ("generic", "compiled")]
        oracle = io.StringIO()
        product_run(swa, 4, out=oracle)
        assert traces[0] == traces[1] == oracle.getvalue()
        assert traces[0].splitlines()[1:] == [
            "0,0,down,6,,", "1,0.1,landed,5,,", "2,0.2,landed,5,,", "3,0.3,landed,5,,"
        ]

    def test_self_loop_reanchors_the_witness(self, fixtures_dir):
        net = load_model(fixtures_dir / "selfloop.pha")
        swa = comp(net, "saw", delta=Fraction(1))
        _, rows = parse_trace(trace_text(swa, 12))
        values = [r.values[0] for r in rows]
        assert values == [0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 3.0]
        assert [r.location for r in rows] == ["climb"] * 12


class TestStimulusParsing:
    def test_header_and_rows(self):
        table = parse_stimulus("tick,events\n3,ON\n7,OFF\n")
        assert table == {3: frozenset({"ON"}), 7: frozenset({"OFF"})}

    def test_duplicate_ticks_accumulate(self):
        table = parse_stimulus("2,ON\n2,OFF\n")
        assert table == {2: frozenset({"ON", "OFF"})}

    def test_multi_event_rows_and_comments(self):
        table = parse_stimulus("# warmup\n\n4,ON;OFF\n")
        assert table == {4: frozenset({"ON", "OFF"})}

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError, match="negative tick"):
            parse_stimulus("tick,events\n-1,ON\n")

    def test_garbage_tick_rejected(self):
        with pytest.raises(ValueError, match="expected a tick number"):
            parse_stimulus("tick,events\nlater,ON\n")

    def test_unknown_events_are_ignored_at_run_time(self, tank_swa):
        text = trace_text(tank_swa, 3, stimulus={1: frozenset({"BOGUS"})})
        _, rows = parse_trace(text)
        assert all(r.location == "t1" for r in rows)
        assert all(r.inputs == () for r in rows)


@st.composite
def decimal_ticks(draw):
    """A tick length m / 10**j and a tick t with t*m < 10**15, often the largest."""
    j = draw(st.integers(0, 3))
    m = draw(st.integers(1, 10**6 - 1))
    top = (10**15 - 1) // m
    t = draw(st.one_of(st.just(top), st.integers(0, top)))
    return Fraction(m, 10**j), t


class TestTimeField:
    """One rule for the time column: exact decimals where `%.15g` would agree."""

    @settings(max_examples=500, deadline=None)
    @given(decimal_ticks())
    def test_decimal_ticks_match_printf(self, delta_t):
        delta, t = delta_t
        assert decimal_delta(delta) is not None
        assert time_field(t, delta) == "%.15g" % (t * float(delta))

    @pytest.mark.parametrize(
        "delta",
        [Fraction(1, 3), Fraction(1, 7), Fraction(2, 3), Fraction(1, 10**4), Fraction(10**6)],
    )
    def test_other_ticks_fall_back_to_printf(self, delta):
        assert decimal_delta(delta) is None
        for t in (0, 1, 7, 12345, 10**9 + 3):
            assert time_field(t, delta) == "%.15g" % (t * float(delta))

    def test_helper_values(self):
        assert decimal_delta(Fraction(1, 100)) == (1, 2)
        assert decimal_delta(Fraction(1, 8)) == (125, 3)
        assert decimal_delta(Fraction(5, 2)) == (25, 1)
        assert decimal_delta(Fraction(999_999)) == (999_999, 0)
        assert [time_field(t, Fraction(1, 100)) for t in (0, 5, 10, 100, 105, 110)] == [
            "0", "0.05", "0.1", "1", "1.05", "1.1",
        ]

    def test_past_printf_range_the_decimal_stays_exact(self):
        assert "%.15g" % float(10**15) == "1e+15"
        assert time_field(10**15, Fraction(1)) == "1000000000000000"
        assert time_field(10**15 + 1, Fraction(1, 10)) == "100000000000000.1"

    @pytest.mark.parametrize(
        "delta", [Fraction(1, 100), Fraction(1, 8), Fraction(3, 8), Fraction(2), Fraction(1, 3)]
    )
    def test_engines_write_the_same_time_field(self, models_dir, delta):
        swa = comp(load_model(models_dir / "thermostat.pha"), "thermo", delta)
        compiled = trace_text(swa, 300, engine="compiled")
        assert compiled == trace_text(swa, 300, engine="generic")
        times = [row.split(",")[1] for row in compiled.splitlines()[1:]]
        assert times == ["%.15g" % (t * float(delta)) for t in range(300)]


class TestUnreachable:
    def test_stuck_reports_tick_and_state(self, fixtures_dir):
        net = load_model(fixtures_dir / "stuckling.pha")
        swa = comp(net, "wedge")
        with pytest.raises(UnreachableState) as exc_info:
            run(swa, 10)
        exc = exc_info.value
        assert (exc.state, exc.tick, exc.k) == ("creep", 6, 6)
        assert exc.valuation["x"] == pytest.approx(0.06)
        assert "stuck at tick 6" in str(exc)

    def test_both_engines_agree_on_stuckness(self, fixtures_dir):
        net = load_model(fixtures_dir / "stuckling.pha")
        swa = comp(net, "wedge")
        with pytest.raises(UnreachableState) as generic:
            run(swa, 10)
        with pytest.raises(UnreachableState) as compiled:
            run_compiled(swa, 10)
        assert compiled.value.tick == generic.value.tick == 6
        assert compiled.value.valuation == generic.value.valuation


STUCK_HEAD = "stuck at tick {} in state {}: no evolution step and no enabled transition (k = {})"

# fixture, ticks, stimulus, the report every engine prints
STUCK_CASES = {
    "stucknet": ("stucknet.pha", 10, {5: "GO"}, [
        STUCK_HEAD.format(6, "gocreep", 6),
        "  x = 0.059999999999999998",
        "  y = 0.059999999999999998",
        "  visible: GO",
    ]),
    # the no-trace runner jumps from step 32 to the last tick before the stuck one
    "stucklate": ("stucklate.pha", 1000, {}, [
        STUCK_HEAD.format(501, "gocreep", 501),
        "  x = 5.0099999999999998",
        "  y = 5.0099999999999998",
    ]),
    # the jump stops at the stimulus tick, and GO is visible on the stuck tick
    "stucklate-go": ("stucklate.pha", 1000, {500: "GO"}, [
        STUCK_HEAD.format(501, "gocreep", 501),
        "  x = 5.0099999999999998",
        "  y = 5.0099999999999998",
        "  visible: GO",
    ]),
    # the mover's switch at tick 301 re-anchors the frozen wedge at y = 3.01
    "stucklate-reanchored": ("stucklate.pha", 1000, {300: "GO"}, [
        STUCK_HEAD.format(502, "donecreep", 200),
        "  x = 7",
        "  y = 5.0099999999999998",
    ]),
}


class TestStuckReport:
    """Every engine, the C driver and the CLI print one stuck report."""

    @pytest.mark.parametrize("case", sorted(STUCK_CASES))
    def test_every_engine_prints_the_same_report(self, case, fixtures_dir, tmp_path, capsys):
        model, ticks, stim, lines = STUCK_CASES[case]
        want = "\n".join(lines)
        product = network_product(load_model(fixtures_dir / model))
        stimulus = {t: frozenset({e}) for t, e in stim.items()}
        for engine, out in (("generic", None), ("compiled", io.StringIO()), ("compiled", None)):
            with pytest.raises(UnreachableState) as exc_info:
                simulate(product, ticks, stimulus, out=out, engine=engine)
            assert str(exc_info.value) == want, engine

        csv = tmp_path / "stim.csv"
        csv.write_text("".join(f"{t},{e}\n" for t, e in stim.items()))
        for engine in ("generic", "compiled"):
            code = main(["compose-and-simulate", str(fixtures_dir / model), "--ticks", str(ticks),
                         "--stimulus", str(csv), "--engine", engine, "--out", str(tmp_path / "t.csv")])
            *warnings, report = capsys.readouterr().err.split("stuck at ")
            assert (code, "stuck at " + report) == (3, want + "\n")
            assert all(line.startswith("warning: ") for line in "".join(warnings).splitlines())

        if find_cc() is None:
            pytest.skip("no C compiler on PATH; the Python engines and the CLI agree")
        binary = build_binary(emit_c(product), tmp_path)
        proc = subprocess.run([str(binary), str(ticks), str(csv)], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (3, want + "\n")


class TestEngines:
    def test_zero_ticks_writes_header_only(self, watertank_swa):
        for engine in ("generic", "compiled"):
            text = trace_text(watertank_swa, 0, engine=engine)
            assert text == trace_header(watertank_swa) + "\n"

    def test_unknown_engine_rejected(self, watertank_swa):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(watertank_swa, 1, engine="warp")

    @pytest.mark.parametrize("model,ticks", [
        ("watertank", 5000),
        ("thermostat", 2000),
        ("traingate", 5000),
    ])
    def test_engines_emit_identical_traces(self, models_dir, model, ticks):
        net = load_model(models_dir / f"{model}.pha")
        swas = [comp(net, a.name) for a in net.automata]
        swa = compose_all(swas)
        generic = trace_text(swa, ticks, engine="generic")
        compiled = trace_text(swa, ticks, engine="compiled")
        assert generic == compiled
        oracle = io.StringIO()
        product_run(swa, ticks, out=oracle)
        assert oracle.getvalue() == generic

    def test_engines_agree_on_final_configuration(self, watertank_swa):
        a = run(watertank_swa, 4321)
        b = run_compiled(watertank_swa, 4321)
        assert (a.location, a.k, a.v, a.i) == (b.location, b.k, b.v, b.i)
        assert a.pending_pre == b.pending_pre

    @settings(max_examples=25, deadline=None)
    @given(
        gos=st.lists(st.integers(0, 39), max_size=8),
        ticks=st.integers(1, 40),
    )
    def test_engines_agree_under_random_stimulus(self, pingpong_swas, gos, ticks):
        left, right = pingpong_swas
        product = compose(left, right)
        stimulus = {t: frozenset({"GO"}) for t in gos}
        generic = trace_text(product, ticks, stimulus=stimulus, engine="generic")
        compiled = trace_text(product, ticks, stimulus=stimulus, engine="compiled")
        assert generic == compiled

    def test_auto_engine_matches_generic(self, tank_swa):
        stim = {5: frozenset({"ON"}), 40: frozenset({"OFF"})}
        assert trace_text(tank_swa, 80, stim) == trace_text(
            tank_swa, 80, stim, engine="generic"
        )


class TestCompose:
    def test_product_states_are_row_major(self, watertank_swa, tank_swa, burner_swa):
        names = [s.name for s in watertank_swa.states]
        assert names == [
            "t1b1", "t1b2", "t2b1", "t2b2", "t3b1", "t3b2", "t4b1", "t4b2",
        ]
        assert watertank_swa.initial_state == "t1b1"
        assert watertank_swa.parts == (tank_swa, burner_swa)

    def test_product_interface(self, watertank_swa):
        assert watertank_swa.variables == ("x", "c")
        assert watertank_swa.outputs == ("ON", "OFF")
        assert watertank_swa.inputs == ()  # internalised by the burner
        assert watertank_swa.name == "tankburner"

    def test_transition_inventory_per_state(self, tank_swa, burner_swa):
        product = compose(tank_swa, burner_swa)
        for s1 in tank_swa.states:
            for s2 in burner_swa.states:
                ps = product.state(s1.name + s2.name)
                n1, n2 = len(s1.egress), len(s2.egress)
                assert len(ps.egress) == n1 * n2 + n1 + n2

    def test_joint_switches_come_first(self, watertank_swa):
        t2b1 = watertank_swa.state("t2b1")
        joint = t2b1.egress[0]
        assert joint.saturable == (True, True)
        assert len(joint.guard_groups) == 2
        frozen_burner = t2b1.egress[2]
        assert frozen_burner.saturable == (True, False)
        frozen_tank = t2b1.egress[4]
        assert frozen_tank.saturable == (False, True)
        assert frozen_tank.emits == ("ON",)

    def test_nsteps_takes_the_tighter_bound(self, watertank_swa):
        assert watertank_swa.state("t2b1").nsteps == 1275
        assert watertank_swa.state("t1b1").nsteps == 2500

    def test_delta_mismatch_rejected(self, watertank_net):
        coarse, _ = compile_automaton(watertank_net.automaton("tank"), Fraction(1, 10))
        fine, _ = compile_automaton(watertank_net.automaton("burner"), DELTA)
        with pytest.raises(ValueError, match="cannot compose"):
            compose(coarse, fine)

    def test_variable_collision_rejected(self, tank_swa):
        with pytest.raises(ValueError, match="collide"):
            compose(tank_swa, tank_swa)

    def test_output_collision_rejected(self):
        def beeper(auto, var):
            return parse_model(
                f"""
network n{auto}

automaton {auto}
  var {var} init 0
  output BEEP

  initial location tock
    invariant {var} >= 0 && {var} <= 1
    flow {var}' = 1
    boundary {var} in [0, 0]

  edge tock -> tock guard {var} == 1 do {var}' := 0 emit BEEP
"""
            )

        one = comp(beeper("em1", "p"), "em1")
        two = comp(beeper("em2", "q"), "em2")
        with pytest.raises(ValueError, match="both sides emit"):
            compose(one, two)

    def test_state_name_collision_rejected(self):
        net = parse_model(
            """
network gluey

automaton first
  var p init 0

  initial location x
    invariant p == 0
    flow p' = 0

  location xy
    invariant p == 0

  edge x -> xy

automaton second
  var q init 0

  initial location yz
    invariant q == 0
    flow q' = 0

  location z
    invariant q == 0

  edge yz -> z
"""
        )
        first = comp(net, "first")
        second = comp(net, "second")
        with pytest.raises(ValueError, match="state names collide"):
            compose(first, second)

    def test_compose_all_nests_left(self, burner_swa, pingpong_swas):
        left, right = pingpong_swas
        triple = compose_all([burner_swa, left, right], name="plant")
        assert triple.name == "plant"
        assert len(triple.states) == 2 * 2 * 2
        assert triple.variables == ("c", "u", "w")
        assert triple.inputs == ("GO",)
        assert triple.outputs == ("ON", "OFF", "PING", "PONG")

    def test_compose_all_rejects_nothing(self):
        with pytest.raises(ValueError, match="nothing to compose"):
            compose_all([])

    def test_burner_drives_the_tank(self, watertank_swa):
        text = trace_text(watertank_swa, 2520, engine="generic")
        _, rows = parse_trace(text)
        assert rows[2500].location == "t1b1"
        assert rows[2501].location == "t1b2"  # burner switches first
        assert rows[2501].outputs == ("ON",)
        assert rows[2502].location == "t2b2"  # tank reacts one tick later
        assert rows[2502].values[0] == 20.0
        assert rows[2519].values[0] > 20.0


class TestComposedTraceShape:
    def test_emitted_events_appear_in_declared_order(self, pingpong_swas):
        left, right = pingpong_swas
        product = compose(left, right)
        stim = {0: frozenset({"GO"}), 1: frozenset({"GO"})}
        text = trace_text(product, 6, stimulus=stim)
        _, rows = parse_trace(text)
        assert rows[1].outputs == ("PING",)
        assert rows[2].outputs == ("PONG",)
        assert rows[1].inputs == ("GO",)


def timer_chain(n):
    """n two-location timers; each starts when the previous one finishes."""
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
    return parse_model("\n".join(lines))


def network_product(net):
    return compose_all(comp(net, a.name) for a in net.automata)


def outcome(swa, ticks, stimulus, engine, traced=True):
    """The trace and the final state, or the stuck report's fields.

    The engine "oracle" is the product stepped through its egress list.
    """
    buf = io.StringIO() if traced else None
    try:
        if engine == "oracle":
            final = product_run(swa, ticks, stimulus, out=buf)
        else:
            final = simulate(swa, ticks, stimulus, out=buf, engine=engine)
    except UnreachableState as exc:
        final = (exc.automaton, exc.tick, exc.state, exc.valuation, exc.k, exc.visible)
    return (buf.getvalue() if traced else None), final


class TestNetworkRunner:
    """The specialised engine runs a product part by part."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ticks=st.integers(1, 300),
        gos=st.lists(st.integers(0, 299), max_size=12),
    )
    def test_fuzzed_networks_agree_with_the_generic_engine(self, seed, ticks, gos):
        product = network_product(parse_model(fuzz_network(seed)))
        stimulus = {t: frozenset({"GO"}) for t in gos}
        generic = outcome(product, ticks, stimulus, "generic")
        assert outcome(product, ticks, stimulus, "oracle") == generic
        assert outcome(product, ticks, stimulus, "compiled") == generic
        assert outcome(product, ticks, stimulus, "compiled", traced=False)[1] == generic[1]

    def test_stuck_part_reports_committed_values(self, fixtures_dir, tmp_path):
        product = network_product(load_model(fixtures_dir / "stucknet.pha"))
        stimulus = {5: frozenset({"GO"})}
        reports = []
        for engine in ("generic", "compiled"):
            with pytest.raises(UnreachableState) as exc_info:
                simulate(product, 10, stimulus, engine=engine)
            exc = exc_info.value
            reports.append((exc.tick, exc.state, exc.valuation, exc.k, exc.visible))
        assert reports[0] == reports[1]
        tick_, state, valuation, k, visible = reports[1]
        assert (tick_, state, k, visible) == (6, "gocreep", 6, frozenset({"GO"}))
        # the mover's edge is enabled and would set x to 7
        assert valuation == {"x": pytest.approx(0.06), "y": pytest.approx(0.06)}

        if find_cc() is None:
            pytest.skip("no C compiler on PATH; the Python engines agree")
        csv = tmp_path / "go.csv"
        csv.write_text("5,GO\n")
        binary = build_binary(emit_c(product), tmp_path)
        proc = subprocess.run([str(binary), "10", str(csv)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert "stuck at tick 6 in state gocreep" in proc.stderr
        assert "(k = 6)" in proc.stderr
        printed = re.findall(r"^  (\w+) = (\S+)$", proc.stderr, re.M)
        assert {var: float(text) for var, text in printed} == valuation

    def test_runner_source_grows_linearly_with_the_parts(self):
        sizes = {n: len(_runner_source(network_product(timer_chain(n)), False)) for n in range(2, 7)}
        assert sizes[6] < 64 * 1024
        for n in range(2, 6):
            assert sizes[n + 1] <= 2 * sizes[n], sizes

    def test_repeat_run_does_not_rehash_the_product(self, monkeypatch):
        product = network_product(timer_chain(4))
        simulate(product, 5)
        calls = []
        real_hash = SwaState.__hash__

        def counting_hash(self):
            calls.append(self.name)
            return real_hash(self)

        monkeypatch.setattr(SwaState, "__hash__", counting_hash)
        simulate(product, 5)
        assert calls == []

    def test_repeat_run_on_an_equal_copy_compares_no_states(self, monkeypatch):
        product = network_product(timer_chain(4))
        copy = network_product(timer_chain(4))
        assert copy == product and copy is not product
        simulate(product, 5)
        simulate(copy, 5)  # may compare the copy with the product once
        calls = []
        real_eq = SwaState.__eq__

        def counting_eq(self, other):
            calls.append(self.name)
            return real_eq(self, other)

        monkeypatch.setattr(SwaState, "__eq__", counting_eq)
        simulate(copy, 5)
        assert calls == []

    def test_a_dropped_product_is_freed_at_once(self):
        # a product kept alive by a reference cycle waits for the cycle collector
        product = network_product(timer_chain(3))
        for engine, out in (("generic", None), ("compiled", None), ("compiled", io.StringIO())):
            simulate(product, 50, out=out, engine=engine)
        _build_runner.cache_clear()
        refs = weakref.ref(product), weakref.ref(switch_plan(product))
        gc.disable()
        try:
            del product
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_parts_survive_renaming(self, burner_swa, pingpong_swas):
        left, right = pingpong_swas
        plant = compose_all([burner_swa, compose(left, right)], name="plant")
        assert plant.parts == (burner_swa, left, right)
        assert burner_swa.parts == ()
        assert trace_text(plant, 200, engine="compiled") == trace_text(plant, 200, engine="generic")


needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")


class TestChainScaling:
    """Every engine is printed part by part, so code per automaton stays flat as a chain grows."""

    TICKS = 400  # timer 7 first finishes near tick 220

    @pytest.fixture(scope="class")
    def chains(self):
        return {n: network_product(timer_chain(n)) for n in (4, 8)}

    @pytest.mark.parametrize("printed", ["runner", "traced runner", "C reaction", "C driver"])
    def test_code_per_automaton_grows_less_than_half(self, chains, printed):
        """The C driver has no table per product state, so its code per automaton does not grow at all."""
        size, growth = {
            "runner": (lambda p: _runner_source(p, False), 1.5),
            "traced runner": (lambda p: _runner_source(p, True), 1.5),
            "C reaction": (lambda p: emit_c(p).automaton_source, 1.5),
            "C driver": (lambda p: emit_c(p).driver_source, 1),
        }[printed]
        per = {n: len(size(p)) / n for n, p in chains.items()}
        assert per[8] < growth * per[4], per

    @needs_cc
    def test_eight_timers_agree_with_the_product_oracle(self, chains, tmp_path):
        product = chains[8]
        oracle = io.StringIO()
        product_run(product, self.TICKS, out=oracle)
        want = oracle.getvalue()
        assert ",E7\n" in want  # the last timer has finished
        for engine in ("generic", "compiled"):
            assert trace_text(product, self.TICKS, engine=engine) == want, engine
        binary = build_binary(emit_c(product), tmp_path)
        proc = subprocess.run([str(binary), str(self.TICKS)], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, want)


HELDNET_STIMULUS = {1: frozenset({"NOISE"}), 4: frozenset({"GO"}), 9: frozenset({"GO", "NOISE"})}


class TestTraceRows:
    """The specialised runner writes its own rows, byte for byte as `run` does.

    `heldnet` pairs a keeper whose level x is held (x' = 0) with a clock
    that restarts every 4 ticks.  Each GO bumps x through a self-loop.
    """

    @pytest.fixture(scope="class")
    def rows(self, fixtures_dir):
        product = network_product(load_model(fixtures_dir / "heldnet.pha"))
        generic, compiled = (
            trace_text(product, 16, HELDNET_STIMULUS, engine) for engine in ("generic", "compiled")
        )
        assert compiled == generic
        header, *rows = compiled.splitlines()
        assert header == "tick,time,location,x,c,inputs,outputs"
        return rows

    def test_self_loop_on_a_held_location_shows_the_new_value(self, rows):
        # GO supplied at tick 4 is visible at tick 5: x goes from 1 to 2
        assert rows[4:10] == [
            "4,0.04,holdrun,1,0,,TICK",
            "5,0.05,holdrun,2,0,GO,BUMPED",
            "6,0.06,holdrun,2,0,,",
            "7,0.07,holdrun,2,0.01,,",
            "8,0.08,holdrun,2,0.02,,",
            "9,0.09,holdrun,2,0.03,,",
        ]

    def test_held_part_keeps_its_value_while_the_other_switches(self, rows):
        # the clock restarts at ticks 4 and 15 while the keeper is frozen
        assert rows[3:5] == ["3,0.03,holdrun,1,0.03,,", "4,0.04,holdrun,1,0,,TICK"]
        assert rows[14:16] == ["14,0.14,holdrun,3,0.03,,", "15,0.15,holdrun,3,0,,TICK"]

    def test_evolve_rows_show_inputs_and_switch_rows_show_outputs(self, rows):
        # NOISE triggers no edge, so it shows on an evolve row
        assert rows[:3] == ["0,0,holdrun,1,0,,", "1,0.01,holdrun,1,0.01,,", "2,0.02,holdrun,1,0.02,NOISE,"]
        # both parts switch on tick 10: the keeper on GO, the clock on its bound
        assert rows[10] == "10,0.1,holdrun,3,0,GO;NOISE,BUMPED;TICK"
