import io
import math
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

from syncha.codegen import (
    CodegenOptions,
    build_binary,
    c_float,
    c_num,
    emit_c,
    find_cc,
    write_unit,
)
from syncha.model import load_model, parse_model
from syncha.swa import UnreachableState, compile_automaton, compose_all, constant_in, simulate

from oracles import fuzz_network, product_run

GOLDEN = Path(__file__).parent / "golden"

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")

CLASH = """
network clash

automaton sim
  var d init 0
  var k init 1
  input int
  output while

  initial location switch
    invariant d >= 0 && d <= 1
    flow d' = 1
    boundary d in [0, 0]

  location exp
    invariant d == 0

  edge switch -> exp guard d == 1 do d' := 0 emit while
"""


def swa_of(text_or_path, automaton, delta=Fraction(1, 100)):
    net = load_model(text_or_path) if isinstance(text_or_path, Path) else parse_model(text_or_path)
    swa, _ = compile_automaton(net.automaton(automaton), delta)
    return swa


def interpreter_trace(swa, ticks, stimulus=None):
    buf = io.StringIO()
    simulate(swa, ticks, stimulus=stimulus, out=buf, engine="generic")
    return buf.getvalue()


def binary_trace(unit, tmp_path, args):
    path = build_binary(unit, tmp_path)
    assert path is not None
    proc = subprocess.run(
        [str(path), *args], capture_output=True, text=True, timeout=60
    )
    return proc


class TestGolden:
    def test_automaton_source_matches(self, watertank_swa):
        unit = emit_c(watertank_swa, CodegenOptions(ticks=10000))
        assert unit.automaton_source == (GOLDEN / "tankburner.c").read_text()

    def test_driver_source_matches(self, watertank_swa):
        unit = emit_c(watertank_swa, CodegenOptions(ticks=10000))
        assert unit.driver_source == (GOLDEN / "tankburner_main.c").read_text()

    def test_unit_metadata(self, watertank_swa):
        unit = emit_c(watertank_swa)
        assert unit.name == "tankburner"
        assert unit.reaction_symbol == "tankburnerR"
        assert unit.state_names[0] == "t1b1"
        assert unit.file_names() == ("tankburner.c", "tankburner_main.c")

    def test_emission_is_deterministic(self, models_dir):
        units = []
        for _ in range(2):
            swa = swa_of(models_dir / "thermostat.pha", "thermo")
            units.append(emit_c(swa, CodegenOptions(ticks=777)))
        assert units[0].automaton_source == units[1].automaton_source
        assert units[0].driver_source == units[1].driver_source


class TestShapes:
    def test_constant_witness_takes_no_time_parameters(self, tank_swa):
        unit = emit_c(tank_swa)
        src = unit.automaton_source
        assert "double t1_ode_1(double C1) { return C1; }" in src
        assert "double t2_ode_1(double d, double k, double C1)" in src
        assert "150 + C1*exp(-0.075*d*k)" in src

    def test_single_state_automaton_has_one_case(self):
        swa = swa_of(
            """
network lone

automaton solo
  var x init 1

  initial location only
    invariant x == 1
    flow x' = 0
""",
            "solo",
        )
        unit = emit_c(swa)
        assert unit.automaton_source.count("case ") == 1
        assert "switch (cstate)" in unit.automaton_source

    def test_driver_keeps_original_location_names(self):
        unit = emit_c(swa_of(CLASH, "sim", delta=Fraction(1)))
        assert '"switch", "exp"' in unit.driver_source
        assert "case switch_:" in unit.automaton_source

    def test_reserved_identifiers_are_renamed(self):
        unit = emit_c(swa_of(CLASH, "sim", delta=Fraction(1)))
        src = unit.automaton_source
        # the template's globals survive untouched
        assert "double d = 1;" in src
        assert "long k = 0;" in src
        # the model's own d and k live under fresh names
        assert "double d_ = 0.0;" in src
        assert "double k_ = 1.0;" in src
        assert "int while_ = 0;" in src

    def test_baked_run_parameters(self, tank_swa):
        unit = emit_c(tank_swa, CodegenOptions(ticks=123, stimulus_path="events.csv"))
        assert "long ticks = 123;" in unit.driver_source
        assert 'const char *stim_path = "events.csv";' in unit.driver_source

    def test_event_count_cap(self):
        names = " ".join(f"E{i}" for i in range(65))
        swa = swa_of(
            f"""
network wide

automaton much
  var x init 0
  input {names}

  initial location idle
    invariant x == 0
    flow x' = 0
""",
            "much",
        )
        with pytest.raises(ValueError, match="64"):
            emit_c(swa)


class TestNumericLiterals:
    def test_c_num_prefers_exact_decimals(self):
        assert c_num(Fraction(1, 4)) == "0.25"
        assert c_num(Fraction(-3, 40)) == "-0.075"
        assert c_num(Fraction(7)) == "7"

    def test_c_num_falls_back_to_repr(self):
        assert c_num(Fraction(1, 3)) == repr(1 / 3)

    def test_c_float_rejects_non_finite(self):
        assert c_float(0.1) == "0.1"
        with pytest.raises(ValueError):
            c_float(math.inf)
        with pytest.raises(ValueError):
            c_float(math.nan)


class TestFiles:
    def test_write_unit_creates_both_files(self, tank_swa, tmp_path):
        unit = emit_c(tank_swa)
        auto_path, main_path = write_unit(unit, tmp_path)
        assert auto_path.read_text() == unit.automaton_source
        assert main_path.read_text() == unit.driver_source

    def test_build_binary_without_compiler(self, tank_swa, tmp_path, monkeypatch):
        import syncha.codegen as codegen

        monkeypatch.setattr(codegen, "find_cc", lambda: None)
        unit = emit_c(tank_swa)
        assert build_binary(unit, tmp_path) is None


@needs_cc
class TestDifferential:
    def test_self_loop_trace_is_identical(self, fixtures_dir, tmp_path):
        swa = swa_of(fixtures_dir / "selfloop.pha", "saw", delta=Fraction(1))
        unit = emit_c(swa, CodegenOptions(ticks=12))
        proc = binary_trace(unit, tmp_path, ["12"])
        assert proc.returncode == 0
        assert proc.stdout == interpreter_trace(swa, 12)

    def test_saturating_ramp_trace_is_identical(self, fixtures_dir, tmp_path):
        swa = swa_of(fixtures_dir / "satramp.pha", "ramp", delta=Fraction(1))
        unit = emit_c(swa, CodegenOptions(ticks=8))
        proc = binary_trace(unit, tmp_path, ["8"])
        assert proc.returncode == 0
        assert proc.stdout == interpreter_trace(swa, 8)

    def test_stimulus_driven_trace_is_identical(self, tank_swa, tmp_path):
        csv = tmp_path / "events.csv"
        csv.write_text("tick,events\n5,ON\n")
        unit = emit_c(tank_swa)
        proc = binary_trace(unit, tmp_path, ["40", str(csv)])
        assert proc.returncode == 0
        stimulus = {5: frozenset({"ON"})}
        assert proc.stdout == interpreter_trace(tank_swa, 40, stimulus)

    def test_renamed_identifiers_still_run(self, tmp_path):
        swa = swa_of(CLASH, "sim", delta=Fraction(1))
        unit = emit_c(swa, CodegenOptions(ticks=6))
        proc = binary_trace(unit, tmp_path, ["6"])
        assert proc.returncode == 0
        assert proc.stdout == interpreter_trace(swa, 6)
        assert ",while" in proc.stdout  # the emitted event keeps its model name

    def test_stuck_run_exits_with_code_3(self, fixtures_dir, tmp_path):
        swa = swa_of(fixtures_dir / "stuckling.pha", "wedge")
        unit = emit_c(swa, CodegenOptions(ticks=10))
        proc = binary_trace(unit, tmp_path, ["10"])
        assert proc.returncode == 3
        assert "stuck at tick 6" in proc.stderr
        assert proc.stdout == interpreter_trace_prefix_of_stuck(swa)


def product_of(net, delta=Fraction(1, 100)):
    return compose_all(compile_automaton(ha, delta)[0] for ha in net.automata)


@needs_cc
@pytest.mark.parametrize("model", ["thermostat", "watertank", "traingate", "fuzz42", "satramp", "stucklate"])
def test_bundled_products_compile_strictly(models_dir, fixtures_dir, tmp_path, model):
    """Each bundled product, and a fuzzed network whose parts hold values.

    In `satramp` and `stucklate` the product state is one part's location
    index, and that part has a location whose witnesses do not move.
    """
    if model == "fuzz42":
        net = parse_model(fuzz_network(42))
    else:
        net = load_model((models_dir if model in ("thermostat", "watertank", "traingate") else fixtures_dir)
                         / f"{model}.pha")
    unit = emit_c(product_of(net))
    auto_path, main_path = write_unit(unit, tmp_path)
    cmd = [find_cc(), "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2",
           str(auto_path), str(main_path), "-lm", "-o", str(tmp_path / unit.name)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@needs_cc
@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 8), Fraction(1, 3)])
@pytest.mark.parametrize("seed", [42, 157, 36, 6])
def test_fuzzed_networks_with_held_values_match_the_generic_engine(tmp_path, seed, delta):
    """Decimal, scaled-decimal and %.15g time fields; rows that print held values."""
    product = product_of(parse_model(fuzz_network(seed)), delta)
    assert any(constant_in(s) for s in product.states)
    stimulus = {t: frozenset({"GO"}) for t in range(7, 400, 23)}
    csv = tmp_path / "go.csv"
    csv.write_text("".join(f"{t},GO\n" for t in stimulus))
    unit = emit_c(product)
    assert "rowkind" in unit.driver_source
    proc = binary_trace(unit, tmp_path, ["400", str(csv)])
    buf, oracle = io.StringIO(), io.StringIO()
    try:
        simulate(product, 400, stimulus, out=buf, engine="generic")
    except UnreachableState:
        assert proc.returncode == 3
        with pytest.raises(UnreachableState):
            product_run(product, 400, stimulus, out=oracle)
    else:
        assert proc.returncode == 0
        product_run(product, 400, stimulus, out=oracle)
    assert proc.stdout == buf.getvalue()
    assert oracle.getvalue() == buf.getvalue()


def interpreter_trace_prefix_of_stuck(swa):
    from syncha.swa import UnreachableState

    buf = io.StringIO()
    try:
        simulate(swa, 10, out=buf, engine="generic")
    except UnreachableState:
        pass
    return buf.getvalue()
