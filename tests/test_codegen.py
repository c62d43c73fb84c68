import io
import math
import os
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
from syncha.swa import (
    UnreachableState,
    compile_automaton,
    compose_all,
    constant_in,
    parse_stimulus,
    simulate,
)

from oracles import fuzz_network, product_run

GOLDEN = Path(__file__).parent / "golden"

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")

CLASH = """
network clash

automaton sim
  var d init 0
  var k init 1
  var buf init 2
  var o init 3
  input int put_g
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
        assert "switch (l0)" in unit.automaton_source

    @needs_cc
    def test_driver_keeps_original_location_names(self, tmp_path):
        swa = swa_of(CLASH, "sim", delta=Fraction(1))
        proc = binary_trace(emit_c(swa), tmp_path, ["4"])
        assert proc.returncode == 0
        assert [row.split(",")[2] for row in proc.stdout.splitlines()[1:]] == ["switch", "switch", "exp", "exp"]
        assert proc.stdout == interpreter_trace(swa, 4)

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
        # and so do the driver's line buffer, its cursor and its writers
        assert "double buf_ = 2.0;" in src
        assert "double o_ = 3.0;" in src
        assert "int put_g_ = 0;" in src
        assert "put_g(buf_, buf__g);" in unit.driver_source

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

    def test_stuck_after_a_flush_keeps_every_row(self, fixtures_dir, tmp_path):
        """The report comes after every row, though the rows fill more than two 64 KB blocks."""
        product = product_of(load_model(fixtures_dir / "stuckfar.pha"))
        csv = tmp_path / "go.csv"
        csv.write_text("2000,GO\n")
        proc = binary_trace(emit_c(product), tmp_path, ["6000", str(csv)])
        for engine in ("generic", "compiled"):
            buf = io.StringIO()
            with pytest.raises(UnreachableState) as exc_info:
                simulate(product, 6000, {2000: frozenset({"GO"})}, out=buf, engine=engine)
            assert (proc.returncode, proc.stdout, proc.stderr) == (3, buf.getvalue(), f"{exc_info.value}\n"), engine
        assert len(proc.stdout) > 2 * 65536
        assert proc.stderr.startswith("stuck at tick 5002 in state donecreep:")

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        """x flips between 0 and -0, which compare equal but print differently."""
        swa = swa_of(SIGNED_ZERO, "flip")
        proc = binary_trace(emit_c(swa), tmp_path, ["40"])
        assert proc.returncode == 0
        assert proc.stdout == interpreter_trace(swa, 40)
        assert {row.split(",")[3] for row in proc.stdout.splitlines()[1:]} == {"0", "-0"}


SIGNED_ZERO = """
network signedzero

automaton flip
  var x init 0
  var c init 0

  initial location run
    invariant c >= 0 && c <= 0.03
    flow x' = 0
    flow c' = 1

  edge run -> run guard c == 0.03 do x' := -x, c' := 0
"""


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
    assert len({frozenset(constant_in(s)) for s in product.states}) > 1  # states hold different sets
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


STIMULUS_ROWS = """tick,events
# a comment, then a blank line

9, GO
4,NOISE
9,NOISE ;  BOGUS
 2 , GO ; NOISE
"""


@needs_cc
def test_c_stimulus_parser_agrees_with_parse_stimulus(fixtures_dir, tmp_path):
    """Header, comment, blank line, rows out of order, a tick on two rows, spaces, an unknown name."""
    product = product_of(load_model(fixtures_dir / "heldnet.pha"))
    stimulus = parse_stimulus(STIMULUS_ROWS)
    assert stimulus[9] == {"GO", "NOISE", "BOGUS"}
    good = tmp_path / "good.csv"
    good.write_text(STIMULUS_ROWS)
    binary = build_binary(emit_c(product), tmp_path)
    proc = subprocess.run([str(binary), "16", str(good)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, interpreter_trace(product, 16, stimulus))
    assert ",GO;NOISE,BUMPED" in proc.stdout  # the two rows of tick 9 merged
    for bad in ("-1,GO", "soon,GO", "7x,GO"):
        path = tmp_path / "bad.csv"
        path.write_text(f"tick,events\n3,GO\n{bad}\n")
        with pytest.raises(ValueError, match=":3:"):
            parse_stimulus(path.read_text())
        proc = subprocess.run([str(binary), "16", str(path)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, bad
        assert f"{path}:3:" in proc.stderr


WIDE_ROWS = f"""
network widerow

automaton wide
  var z init -0.{"0" * 299}1234567890123456789
  input ALPHA_IS_A_LONG_EVENT BRAVO_IS_LONGER_STILL
  output CHARLIE_EMITTED_HERE DELTA_EMITTED_TOO

  initial location waiting
    invariant z <= 0
    flow z' = 0.001 * z

  location the_longest_location_name_of_this_network
    invariant z <= 0
    flow z' = 0.001 * z

  edge waiting -> the_longest_location_name_of_this_network on ALPHA_IS_A_LONG_EVENT emit CHARLIE_EMITTED_HERE DELTA_EMITTED_TOO

automaton ramp
  var x init 0
  var y init 1

  initial location up
    invariant x >= 0 && y >= 1
    flow x' = 1.7
    flow y' = 0.0005 * y
"""


@pytest.fixture(scope="module")
def sanitizing_cc(tmp_path_factory):
    """The C compiler, if it can build with AddressSanitizer and UBSan."""
    src = tmp_path_factory.mktemp("probe") / "probe.c"
    src.write_text("int main(void) { return 0; }\n")
    cmd = [find_cc(), "-fsanitize=address,undefined", str(src), "-o", str(src.with_suffix(""))]
    if subprocess.run(cmd, capture_output=True).returncode != 0:
        pytest.skip("the C compiler cannot build with -fsanitize=address,undefined")
    return find_cc()


@needs_cc
def test_widest_rows_and_slot_collisions_stay_in_bounds(sanitizing_cc, tmp_path):
    """The widest row a network writes, and ramps with more distinct values than cache slots.

    Row 4 shows the longest location name, every event, values whose %.15g
    is longest (negative, exponent form) and a %.15g time field (delta 1/3).
    x and y never repeat, so their 20,000 values collide in 16,384 slots,
    and the rows cross the driver's 64 KB block many times.
    """
    product = product_of(parse_model(WIDE_ROWS), Fraction(1, 3))
    csv = tmp_path / "all.csv"
    csv.write_text("3,ALPHA_IS_A_LONG_EVENT;BRAVO_IS_LONGER_STILL\n")
    auto_path, main_path = write_unit(emit_c(product), tmp_path)
    binary = tmp_path / "wide"
    cmd = [sanitizing_cc, "-std=c99", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
           str(auto_path), str(main_path), "-lm", "-o", str(binary)]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=0"}  # the stimulus table lives until exit
    proc = subprocess.run([str(binary), "20000", str(csv)], capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout) > 10 * 65536
    assert proc.stdout == interpreter_trace(product, 20000, {3: frozenset({"ALPHA_IS_A_LONG_EVENT",
                                                                           "BRAVO_IS_LONGER_STILL"})})
    rows = [row.split(",") for row in proc.stdout.splitlines()[1:]]
    assert rows[4][2] == max((s.name for s in product.states), key=len)
    assert rows[4][6:] == ["ALPHA_IS_A_LONG_EVENT;BRAVO_IS_LONGER_STILL", "CHARLIE_EMITTED_HERE;DELTA_EMITTED_TOO"]
    assert len(rows[4][3]) == 22  # -1.23621507852519e-300
    assert min(len({row[i] for row in rows}) for i in (4, 5)) > 16384


def interpreter_trace_prefix_of_stuck(swa):
    from syncha.swa import UnreachableState

    buf = io.StringIO()
    try:
        simulate(swa, 10, out=buf, engine="generic")
    except UnreachableState:
        pass
    return buf.getvalue()
