import json
import math
from fractions import Fraction

import pytest

from syncha.expr import Interval
from syncha.model import load_model, parse_model
from syncha.odesolve import Monotonicity, WitnessKind, solve_ode
from syncha.shagen import (
    _variable_dwell,
    generate_sha,
    sha_to_ir,
)

DELTA = Fraction(1, 100)

LN = math.log


def dwell_of(sha, location, variable):
    for d in sha.analysis(location).dwells:
        if d.variable == variable:
            return d
    raise AssertionError(f"no dwell for {variable} in {location}")


@pytest.fixture(scope="module")
def tank_sha(watertank_net):
    return generate_sha(watertank_net.automaton("tank"), DELTA)


class TestWatertankAnalysis:
    def test_heating_dwell(self, tank_sha):
        sha, _ = tank_sha
        a = sha.analysis("t2")
        expected = LN(Fraction(5, 13)) / -0.075
        assert a.worst_case_time == pytest.approx(expected, abs=1e-12)
        assert a.worst_case_time == pytest.approx(12.740152600365818, abs=1e-9)
        assert a.nsteps == 1275
        assert not a.fairness_warning

    def test_cooling_dwell(self, tank_sha):
        sha, _ = tank_sha
        a = sha.analysis("t4")
        assert a.worst_case_time == pytest.approx(LN(0.2) / -0.075, abs=1e-12)
        assert a.worst_case_time == pytest.approx(21.459172165788004, abs=1e-9)
        assert a.nsteps == 2146

    def test_constant_locations_are_unbounded(self, tank_sha):
        sha, _ = tank_sha
        for name in ("t1", "t3"):
            a = sha.analysis(name)
            assert a.worst_case_time == math.inf
            assert a.nsteps is None
            assert a.fairness_warning

    def test_fairness_warning_text(self, tank_sha):
        _, warnings = tank_sha
        assert warnings == [
            "fairness required: location t1 of tank has an unbounded dwell time",
            "fairness required: location t3 of tank has an unbounded dwell time",
        ]

    def test_dwell_directions_and_bounds(self, tank_sha):
        sha, _ = tank_sha
        heat = dwell_of(sha, "t2", "x")
        assert heat.direction is Monotonicity.INCREASING
        assert (heat.entry_value, heat.exit_bound) == (20.0, 100.0)
        cool = dwell_of(sha, "t4", "x")
        assert cool.direction is Monotonicity.DECREASING
        assert (cool.entry_value, cool.exit_bound) == (100.0, 20.0)

    def test_burner_clock_dwells(self, watertank_net):
        sha, warnings = generate_sha(watertank_net.automaton("burner"), DELTA)
        assert warnings == []
        assert sha.analysis("b1").worst_case_time == pytest.approx(25.0)
        assert sha.analysis("b1").nsteps == 2500
        assert sha.analysis("b2").worst_case_time == pytest.approx(15.0)
        assert sha.analysis("b2").nsteps == 1500


class TestOtherModels:
    def test_thermostat_dwells(self, models_dir):
        net = load_model(models_dir / "thermostat.pha")
        sha, warnings = generate_sha(net.automaton("thermo"), DELTA)
        assert warnings == []
        cooling = sha.analysis("cooling")
        assert cooling.worst_case_time == pytest.approx(2.006706954621511, abs=1e-9)
        assert cooling.nsteps == 201
        heating = sha.analysis("heating")
        assert heating.worst_case_time == pytest.approx(2.027325540540822, abs=1e-9)
        assert heating.nsteps == 203

    def test_traingate_dwells(self, models_dir):
        net = load_model(models_dir / "traingate.pha")
        train, train_warn = generate_sha(net.automaton("train"), DELTA)
        assert train_warn == []
        for name in ("far", "near"):
            a = train.analysis(name)
            assert a.worst_case_time == pytest.approx(500 / 24, abs=1e-12)
            assert a.nsteps == 2084
        gate, gate_warn = generate_sha(net.automaton("gate"), DELTA)
        assert gate.analysis("raising").worst_case_time == pytest.approx(5.0)
        assert gate.analysis("raising").nsteps == 500
        assert [w.split()[3] for w in gate_warn] == ["up", "down"]

    def test_nsteps_ceiling_is_exact(self, watertank_net):
        sha, _ = generate_sha(watertank_net.automaton("tank"), DELTA)
        t4 = sha.analysis("t4")
        assert t4.nsteps == math.ceil(Fraction(t4.worst_case_time) / DELTA)
        coarse, _ = generate_sha(watertank_net.automaton("tank"), Fraction(1, 10))
        assert coarse.analysis("t4").nsteps == 215

    def test_delta_is_recorded(self, watertank_net):
        sha, _ = generate_sha(watertank_net.automaton("burner"), Fraction(1, 4))
        assert sha.delta == Fraction(1, 4)
        assert sha.delta_f == 0.25
        assert sha.analysis("b1").nsteps == 100


class TestGateKeeping:
    def test_nonpositive_delta_rejected(self, watertank_net):
        tank = watertank_net.automaton("tank")
        with pytest.raises(ValueError, match="must be positive"):
            generate_sha(tank, Fraction(0))
        with pytest.raises(ValueError, match="must be positive"):
            generate_sha(tank, Fraction(-1, 100))

    def test_ill_formed_automaton_rejected(self, fixtures_dir):
        net = load_model(fixtures_dir / "nonmono.pha")
        with pytest.raises(ValueError, match="not well formed"):
            generate_sha(net.automaton("box"), DELTA)

    def test_unknown_location_lookup(self, watertank_net):
        sha, _ = generate_sha(watertank_net.automaton("burner"), DELTA)
        with pytest.raises(KeyError):
            sha.analysis("b9")


class TestEdgeCases:
    def test_single_location_without_edges(self):
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
        sha, warnings = generate_sha(net.automaton("solo"), DELTA)
        assert len(sha.analyses) == 1
        assert sha.analysis("only").worst_case_time == math.inf
        assert sha.analysis("only").nsteps is None
        assert len(warnings) == 1

    def test_variable_without_flow_gets_zero_witness(self):
        net = parse_model(
            """
network still

automaton s
  var x init 0
  var y init 3

  initial location run
    invariant x >= 0 && x <= 1
    flow x' = 1
"""
        )
        sha, _ = generate_sha(net.automaton("s"), DELTA)
        a = sha.analysis("run")
        assert a.witness_for("y").kind is WitnessKind.CONSTANT
        assert dwell_of(sha, "run", "y").dwell == math.inf
        assert a.worst_case_time == pytest.approx(1.0)

    def test_empty_entry_interval_means_zero_dwell(self):
        from syncha.expr import AffineExpr

        witness = solve_ode("x", AffineExpr(Fraction(0), Fraction(1), "x"))
        d = _variable_dwell(
            "x",
            witness,
            Monotonicity.INCREASING,
            entry=Interval.empty(),
            bounds=Interval.closed(Fraction(0), Fraction(10)),
        )
        assert d.dwell == 0.0
        assert d.entry_value is None

    def test_entry_pinned_at_equilibrium_stalls(self):
        net = parse_model(
            """
network pinned

automaton p
  var x init 150

  initial location hot
    invariant x >= 0 && x <= 150
    flow x' = 0.075 * (150 - x)
    boundary x in [150, 150]
"""
        )
        sha, warnings = generate_sha(net.automaton("p"), DELTA)
        d = dwell_of(sha, "hot", "x")
        assert d.direction is Monotonicity.CONSTANT
        assert d.dwell == math.inf
        assert len(warnings) == 1


class TestIr:
    def test_ir_is_json_serialisable(self, watertank_net):
        sha, _ = generate_sha(watertank_net.automaton("tank"), DELTA)
        blob = json.dumps(sha_to_ir(sha), indent=2)
        data = json.loads(blob)
        assert data["automaton"] == "tank"
        assert data["delta"] == "1/100"
        assert [loc["name"] for loc in data["locations"]] == ["t1", "t2", "t3", "t4"]

    def test_ir_encodes_unbounded_values(self, watertank_net):
        sha, _ = generate_sha(watertank_net.automaton("tank"), DELTA)
        data = sha_to_ir(sha)
        t1 = data["locations"][0]
        assert t1["worst_case_time"] == "inf"
        assert t1["nsteps"] is None
        assert t1["fairness_warning"] is True
        t2 = data["locations"][1]
        assert t2["nsteps"] == 1275
        assert t2["witnesses"][0]["kind"] == "EXPONENTIAL"
        assert t2["witnesses"][0]["equilibrium"] == "150"
