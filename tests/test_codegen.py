import importlib.util
import io
import math
import os
import random
import re
import struct
import subprocess
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from syncha.cli import main as cli_main
from syncha.codegen import (
    _C_FORMAT,
    CodegenOptions,
    build_binary,
    c_float,
    c_num,
    c_string,
    emit_c,
    find_cc,
    write_unit,
    write_whole,
)
from syncha.model import KEYWORDS, load_model, parse_model
from syncha.odesolve import WitnessKind
from syncha.swa import (
    UnreachableState,
    compile_automaton,
    compose_all,
    format_trace_row,
    parse_stimulus,
    read_stimulus,
    _runner_source,
    simulate,
    time_field,
)

from oracles import fuzz_network, product_run, timer_chain_source

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("c_probe", Path(__file__).parent.parent / "scripts" / "c_probe.py")
c_probe = importlib.util.module_from_spec(_spec)  # the value-counting build of scripts/c_probe.py
_spec.loader.exec_module(c_probe)

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")

CLASH = """
network clash

automaton sim
  var d init 0
  var k init 1
  var buf init 2
  var o init 3
  var l0 init 4
  var vis init 5
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


def interpreter_trace(swa, ticks, stimulus=None, engine="generic"):
    buf = io.StringIO()
    simulate(swa, ticks, stimulus=stimulus, out=buf, engine=engine)
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
        """Witnesses are printed inline; a constant one is its entry constant, with no step."""
        src = emit_c(tank_swa).automaton_source
        assert "double prev_x = k >= 1 ? c1_x : v_x;" in src  # t1 holds x
        # t1 and t3 hold x: its step keeps n_x there
        assert "n_x = (l0 == 1 ? 150.0 + c1_x * exp(-0.00075 * k) : l0 == 3 ? c1_x * exp(-0.00075 * k) : n_x);" in src
        assert "double prev_x = k >= 1 ? 150.0 + c1_x * exp(-0.00075 * (k - 1)) : v_x;" in src

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
        assert "long k = 0;" in src
        assert "int l0 = 0;" in src
        # every model variable is named by its role: the model's own k and l0 as much as d
        assert "double v_k = 1.0;" in src
        assert "double v_l0 = 4.0;" in src
        assert "double v_d = 0.0;" in src
        # the event masks survive untouched beside the model's vis (emit is a keyword of models)
        assert "unsigned long long vis = 0, emit = 0;" in src
        assert "double v_vis = 5.0;" in src
        # and so do the driver's line buffer, its cursor and its writers
        assert "double v_buf = 2.0;" in src
        assert "double v_o = 3.0;" in src
        assert "put_g(v_buf, g_buf);" in unit.driver_source
        # events have no globals: the driver names them from the masks' bits
        assert 'put_e(vis >> 1 & 1, "put_g");' in unit.driver_source
        assert 'put_e(emit >> 2 & 1, "while");' in unit.driver_source

    def test_baked_run_parameters(self, tank_swa):
        unit = emit_c(tank_swa, CodegenOptions(ticks=123, stimulus_path="events.csv"))
        assert "long ticks = 123;" in unit.driver_source
        assert 'const char *stim_path = "events.csv";' in unit.driver_source

    def test_c_string_escapes_quotes_backslashes_and_unprintable_bytes(self):
        assert c_string('ev"il\\q.csv') == '"ev\\"il\\\\q.csv"'
        assert c_string("a\tb\u00e9??=") == '"a\\011b\\303\\251\\?\\?="'

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

    def test_an_edge_on_an_event_and_its_absence_never_fires(self, tmp_path):
        """``on GO && !GO`` asks GO to be visible and silent: at tick 4 GO is visible, so the part is stuck."""
        swa = swa_of(CONTRADICTION, "a")
        csv = tmp_path / "go.csv"
        csv.write_text("3,GO\n")
        proc = binary_trace(emit_c(swa), tmp_path, ["8", str(csv)])
        for engine in ("generic", "compiled"):
            buf = io.StringIO()
            with pytest.raises(UnreachableState) as exc_info:
                simulate(swa, 8, {3: frozenset({"GO"})}, out=buf, engine=engine)
            assert (proc.returncode, proc.stdout, proc.stderr) == (3, buf.getvalue(), f"{exc_info.value}\n"), engine
        assert proc.stderr.startswith("stuck at tick 4 in state go:")

    def test_sixty_four_events_fill_the_mask(self, tmp_path):
        """Bit 63 is an event like any other: E63 is tested, emitted and shown."""
        swa = swa_of(SIXTY_FOUR, "wide")
        csv = tmp_path / "e63.csv"
        csv.write_text("2,E63\n")
        unit = emit_c(swa)
        auto_path, main_path = write_unit(unit, tmp_path)
        cmd = [find_cc(), "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2",
               str(auto_path), str(main_path), "-lm", "-o", str(tmp_path / unit.name)]
        build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr
        proc = subprocess.run([str(tmp_path / unit.name), "6", str(csv)], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, interpreter_trace(swa, 6, {2: frozenset({"E63"})}))
        assert proc.stdout.splitlines()[4].endswith(",E63,E0")

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

    def test_a_chain_of_40_timers_matches_the_generic_engine(self, tmp_path):
        """2**40 product states: the reaction keeps one location index per part, not a product index."""
        chain = product_of(parse_model(timer_chain_source(40)))
        proc = binary_trace(emit_c(chain), tmp_path, ["10000"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == interpreter_trace(chain, 10000)
        assert any("E39" in row.split(",")[-1] for row in proc.stdout.splitlines())  # the last timer finished

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        """x flips between 0 and -0, which compare equal but print differently."""
        swa = swa_of(SIGNED_ZERO, "flip")
        proc = binary_trace(emit_c(swa), tmp_path, ["40"])
        assert proc.returncode == 0
        assert proc.stdout == interpreter_trace(swa, 40)
        assert {row.split(",")[3] for row in proc.stdout.splitlines()[1:]} == {"0", "-0"}


CONTRADICTION = """
network contra

automaton a
  var x init 0
  input GO

  initial location go
    invariant x >= 0
    flow x' = 1

  location done
    invariant x >= 0
    flow x' = 0

  edge go -> done on GO && !GO
"""

SIXTY_FOUR = f"""
network sixtyfour

automaton wide
  var x init 0
  input {" ".join(f"E{i}" for i in range(1, 64))}
  output E0

  initial location idle
    invariant x == 0
    flow x' = 0

  location done
    invariant x == 0
    flow x' = 0

  edge idle -> done on E63 && !E62 emit E0
"""

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
    """Each bundled product, and a fuzzed network whose parts hold values, as two translation units and
    as the one `build_binary` compiles.

    In `satramp` and `stucklate` the product state is one part's location
    index, and that part has a location whose witnesses do not move.
    `stucklate` snaps nothing, so its unit has no ``snap``.
    """
    if model == "fuzz42":
        net = parse_model(fuzz_network(42))
    else:
        net = load_model((models_dir if model in ("thermostat", "watertank", "traingate") else fixtures_dir)
                         / f"{model}.pha")
    unit = emit_c(product_of(net))
    assert ("static double snap(" in unit.automaton_source) == (model != "stucklate")
    auto_path, main_path = write_unit(unit, tmp_path)
    strict = [find_cc(), "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2"]
    for sources in ([auto_path, main_path], [write_whole(unit, tmp_path)]):  # two units, then one
        proc = subprocess.run([*strict, *map(str, sources), "-lm", "-o", str(tmp_path / unit.name)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@needs_cc
@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 8), Fraction(1, 3)])
@pytest.mark.parametrize("seed", [42, 157, 36, 6])
def test_fuzzed_networks_with_held_values_match_the_generic_engine(tmp_path, seed, delta):
    """Decimal, scaled-decimal and %.15g time fields; rows that print held values."""
    product = product_of(parse_model(fuzz_network(seed)), delta)
    held = [frozenset(var for var, w in s.witnesses if w.kind is WitnessKind.CONSTANT) for s in product.states]
    assert any(held)
    stimulus = {t: frozenset({"GO"}) for t in range(7, 400, 23)}
    csv = tmp_path / "go.csv"
    csv.write_text("".join(f"{t},GO\n" for t in stimulus))
    unit = emit_c(product)
    assert len(set(held)) > 1  # states hold different sets
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
def test_c_stimulus_parser_agrees_with_parse_stimulus(fixtures_dir, tmp_path, capsys):
    """Header, comment, blank line, rows out of order, a tick on two rows, spaces, an unknown name.

    The CLI, `parse_stimulus` and the driver reject the same rows.
    """
    product = product_of(load_model(fixtures_dir / "heldnet.pha"))
    stimulus = parse_stimulus(STIMULUS_ROWS)
    assert stimulus[9] == {"GO", "NOISE", "BOGUS"}
    good = tmp_path / "good.csv"
    good.write_text(STIMULUS_ROWS)
    binary = build_binary(emit_c(product), tmp_path)
    proc = subprocess.run([str(binary), "16", str(good)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, interpreter_trace(product, 16, stimulus))
    assert ",GO;NOISE,BUMPED" in proc.stdout  # the two rows of tick 9 merged
    for bad in ("-1,GO", "soon,GO", "7x,GO", "1_000,GO", "\uff15,GO", "+-5,GO", "0x10,GO"):
        path = tmp_path / "bad.csv"
        path.write_text(f"tick,events\n3,GO\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3:"):
            parse_stimulus(path.read_text(encoding="utf-8"))
        proc = subprocess.run([str(binary), "16", str(path)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, bad
        assert f"{path}:3:" in proc.stderr
        cli = ["compose-and-simulate", str(fixtures_dir / "heldnet.pha"), "--ticks", "16", "--stimulus", str(path)]
        assert cli_main(cli) == 2, bad
        assert f"{path}:3:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def heldnet_driver(fixtures_dir, tmp_path_factory):
    """The heldnet product and its built driver."""
    product = product_of(load_model(fixtures_dir / "heldnet.pha"))
    return product, build_binary(emit_c(product), tmp_path_factory.mktemp("heldnet"))


@needs_cc
@pytest.mark.parametrize("rows, expected", [
    pytest.param("tick,events\n5\u00a0,GO\n", 2, id="no-break-space"),  # a no-break space is no space
    pytest.param("5\u00a0,GO\n", {}, id="no-break-space-first"),  # nor on the first row: the header
    pytest.param("\u20035,GO\n", {}, id="em-space-first"),
    pytest.param("tick,events\n5,GO\u2028\n", {}, id="line-separator"),  # rows end at \n only
    pytest.param("tick,events\n5,GO\r6,GO\r\n", {5: {"GO"}}, id="bare-cr"),  # a \r ends the content
    pytest.param("tick,events\n5,GO\0;NOISE\n", {5: {"GO"}}, id="nul"),  # and so does a NUL
    pytest.param("tick,events\n5\v,GO\n", 2, id="vt-after-tick"),
    pytest.param("tick,events\n\v5,GO\n", {5: {"GO"}}, id="vt-before-tick"),  # strtol skips it
    pytest.param("tick,events\n 5 , GO ; \n", {5: {"GO"}}, id="spaces"),
    pytest.param("tick,events\r\n3,GO\r\n5,GO;NOISE\r\n\r\n", {3: {"GO"}, 5: {"GO", "NOISE"}}, id="crlf"),
    pytest.param("tick,events\n5,GO\udcff\n", {}, id="not-utf8-event"),  # the byte 0xff: an unknown event
    pytest.param("tick,events\n\udcff5,GO\n", 2, id="not-utf8-tick"),  # and no tick
])
def test_stimulus_rows_read_alike_in_the_cli_and_the_driver(heldnet_driver, fixtures_dir, tmp_path, capsys, rows,
                                                            expected):
    """`read_stimulus`, the CLI and the driver give the same table, or reject the same line.

    `expected` is the table of known events, or the line number of the
    error.  A lone surrogate in `rows` is written as the byte it escapes.
    """
    product, binary = heldnet_driver
    path = tmp_path / "stim.csv"
    path.write_bytes(rows.encode("utf-8", "surrogateescape"))
    proc = subprocess.run([str(binary), "16", str(path)], capture_output=True, text=True, timeout=60)
    cli = cli_main(["compose-and-simulate", str(fixtures_dir / "heldnet.pha"), "--ticks", "16", "--stimulus", str(path)])
    out, err = capsys.readouterr()
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=f":{expected}: expected a tick number"):
            read_stimulus(path)
        assert proc.returncode == cli == 2
        assert proc.stderr.startswith(f"{path}:{expected}: expected a tick number")
        assert f"{path}:{expected}: expected a tick number" in err
        return
    stimulus = read_stimulus(path)
    known = {t: events & {"GO", "NOISE"} for t, events in stimulus.items()}
    assert {t: events for t, events in known.items() if events} == expected
    assert (proc.returncode, proc.stdout) == (0, interpreter_trace(product, 16, stimulus))
    assert (cli, out) == (0, proc.stdout)
    assert ("GO\\udcff" in err) == ("\udcff" in rows)  # the unknown event is named in the warning


PAD = 52  # `pad`'s variables: each wide value fills 23 of the 24 bytes `width` allows it
TINY = "-0." + "0" * 299 + "1234567890123456789"
WIDE_ROWS = f"""
network widerow

automaton wide
  var z init {TINY}
  input ALPHA_IS_A_LONG_EVENT BRAVO_IS_LONGER_STILL
  output CHARLIE_EMITTED_HERE DELTA_EMITTED_TOO

  initial location waiting
    invariant z <= 0
    flow z' = 0.001 * z

  location the_longest_location_name_of_this_network
    invariant z <= 0
    flow z' = 0.001 * z

  edge waiting -> the_longest_location_name_of_this_network on ALPHA_IS_A_LONG_EVENT emit CHARLIE_EMITTED_HERE DELTA_EMITTED_TOO
  edge the_longest_location_name_of_this_network -> the_longest_location_name_of_this_network on ALPHA_IS_A_LONG_EVENT emit CHARLIE_EMITTED_HERE DELTA_EMITTED_TOO

automaton ramp
  var x init 0
  var y init 1

  initial location up
    invariant x >= 0 && y >= 1
    flow x' = 1.1
    flow y' = 0.0004 * y

automaton pad
{"".join(f"  var h{i} init 0{chr(10)}" for i in range(PAD))}  input ALPHA_IS_A_LONG_EVENT CHARLIE_EMITTED_HERE

  initial location low

  location high

  edge low -> high on ALPHA_IS_A_LONG_EVENT do {", ".join(f"h{i}' := {TINY}" for i in range(PAD))}
  edge high -> low on CHARLIE_EMITTED_HERE do {", ".join(f"h{i}' := 0" for i in range(PAD))}
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


def cache_set(x):
    """The set of `put_g`'s text cache that the double x falls in: 0 .. 4095."""
    return int.from_bytes(struct.pack("<d", x), "little") * 0x9E3779B97F4A7C15 % 2**64 >> 52


def widest_rows_run(cc, tmp_path, delta):
    """20,000 ticks of WIDE_ROWS at `delta` by a driver built with AddressSanitizer and UBSan, which
    must run clean and write the generic engine's trace.

    A stimulus tick t makes row t+1 as wide as rows get: the longest
    location name, every event and values whose %.15g is longest
    (negative, exponent form); `pad` holds 0 on the rows between.  Row 4
    is one.  Another, row `wide`, goes where the rows reach furthest past
    the driver's 64 KB flush mark, by the row offsets of the trace
    without it, so it starts within `width` below the mark.  Returns the
    product, those offsets, `wide`, the driver's `width` and the rows.
    """
    product = product_of(parse_model(WIDE_ROWS), delta)
    every = frozenset({"ALPHA_IS_A_LONG_EVENT", "BRAVO_IS_LONGER_STILL"})
    plain = io.StringIO()
    simulate(product, 20000, {3: every}, out=plain)
    starts, at = [], 0  # where each row starts in the driver's buffer
    lengths = list(map(len, plain.getvalue().splitlines(True)[1:]))
    for n in lengths:
        starts.append(at)
        at = 0 if at + n > 65536 else at + n
    wide = max(range(6, 20000), key=lambda t: starts[t] + lengths[t])
    stimulus = {3: every, wide - 1: every}
    csv = tmp_path / "all.csv"
    csv.write_text("".join(f"{t},ALPHA_IS_A_LONG_EVENT;BRAVO_IS_LONGER_STILL\n" for t in stimulus))
    unit = emit_c(product)
    width = int(re.search(r"buf\[65536 \+ (\d+)\]", unit.driver_source)[1])
    auto_path, main_path = write_unit(unit, tmp_path)
    binary = tmp_path / "wide"
    cmd = [cc, "-std=c99", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
           str(auto_path), str(main_path), "-lm", "-o", str(binary)]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=0"}  # the stimulus table lives until exit
    proc = subprocess.run([str(binary), "20000", str(csv)], capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout) > 10 * 65536
    assert proc.stdout == interpreter_trace(product, 20000, stimulus)
    lines = proc.stdout.splitlines(True)[1:]
    for t in (4, wide):
        row = lines[t].split(",")
        assert row[2] == max((s.name for s in product.states), key=len)
        assert row[-2:] == ["ALPHA_IS_A_LONG_EVENT;BRAVO_IS_LONGER_STILL", "CHARLIE_EMITTED_HERE;DELTA_EMITTED_TOO\n"]
        assert [len(text) for text in row[6:-2]] == [22] * PAD  # -1.23456789012346e-300
    assert 65536 - width < starts[wide] <= 65536
    return product, starts, wide, width, lines


@needs_cc
def test_widest_rows_and_slot_collisions_stay_in_bounds(sanitizing_cc, tmp_path, monkeypatch):
    """The widest rows a network writes, one of them at the flush mark, and ramps with more distinct
    values than cache slots.

    The rows of `widest_rows_run` at delta 1/3, so with a %.15g time
    field.  Row `wide` comes within 2 bytes per value of the buffer's
    end, so a `width` of 22 bytes per value would be overrun.
    x and y never repeat, so their 20,000 values collide in 4,096 sets of
    four slots; each column puts at least five values in the last set, so
    its fourth slot, the last of the array, is written, read and evicted.
    The rows cross the driver's 64 KB block many times.
    """
    shown = []  # the doubles of every row the generic engine writes

    def format_row(swa, t, location, values, *events):
        shown.append(values := tuple(values))
        return format_trace_row(swa, t, location, values, *events)

    monkeypatch.setattr("syncha.swa.format_trace_row", format_row)
    product, starts, wide, width, lines = widest_rows_run(sanitizing_cc, tmp_path, Fraction(1, 3))
    assert starts[wide] + len(lines[wide]) > 65536 + width - 2 * len(product.variables)
    rows = [row.split(",") for row in lines]
    assert len(rows[4][3]) == 22  # -1.23621507852519e-300
    assert min(len({row[i] for row in rows}) for i in (4, 5)) > 16384
    assert [len({xs[i] for xs in shown[-20000:] if cache_set(xs[i]) == 4095}) for i in (1, 2)] == [5, 5]


@needs_cc
@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 8)], ids=str)
def test_decimal_stamps_of_the_widest_rows_stay_in_bounds(sanitizing_cc, tmp_path, delta):
    """The widest rows under AddressSanitizer at a short decimal delta, so that the row at the 64 KB flush
    mark starts with the fixed-width copy of the tick counter and a time field either from the tick's
    digits (1/100) or from ``fmt_g`` (1/8)."""
    product, starts, wide, width, lines = widest_rows_run(sanitizing_cc, tmp_path, delta)
    assert lines[wide].startswith(f"{wide},{time_field(wide, delta)},")
    assert ("o += fmt_g(o, t * " in emit_c(product).driver_source) == (delta == Fraction(1, 8))


SAWTOOTH = """
network saw

automaton saw
  var x init 0

  initial location up
    invariant x >= 0 && x <= 20
    flow x' = 1

  edge up -> up guard x == 20 do x' := 0
"""


@needs_cc
def test_put_g_formats_each_value_of_a_periodic_orbit_once(tmp_path, monkeypatch):
    """Three periods of a sawtooth whose 2,001 values share cache sets in up to fours, never in fives.

    The values the driver formats, through ``fmt_g``'s own digits or its
    `snprintf` fallback, are counted by the shim of `scripts/c_probe.py`
    (the emitted C is unchanged): each distinct value is formatted once,
    so a value that up to three others of its set have followed is found
    in the set's later slots.
    """
    swa = swa_of(SAWTOOTH, "saw")
    shown = []

    def format_row(swa, t, location, values, *events):
        shown.append(values := tuple(values))
        return format_trace_row(swa, t, location, values, *events)

    monkeypatch.setattr("syncha.swa.format_trace_row", format_row)
    trace = interpreter_trace(swa, 6007)
    values = {x.hex(): x for (x,) in shown}
    assert len(values) == 2001
    assert sum(x >= 1 for x in values.values()) == 1901  # the rest, below 1, go to snprintf
    assert max(Counter(map(cache_set, values.values())).values()) == 4
    binary = c_probe.counted_binary(emit_c(swa), tmp_path)
    proc = subprocess.run([str(binary), "6007"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, trace)
    assert int(proc.stderr) == len(values)


@needs_cc
@pytest.mark.parametrize("model", ["traingate", "watertank"])
def test_put_g_misses_little_more_than_once_per_distinct_value(models_dir, tmp_path, model):
    """50,000 ticks of a bundled network's nearly periodic orbit: at most 1.25 values formatted per distinct
    value, counted through either path of ``fmt_g``.

    With 8,192 sets of two, traingate's nearly arithmetic values thrashed:
    14,347 calls for 4,872 distinct values, and 8,389 for 5,998 on watertank.
    """
    product = product_of(load_model(models_dir / f"{model}.pha"))
    calls = c_probe.formatted_values(c_probe.counted_binary(emit_c(product), tmp_path), 50_000)
    assert calls <= 1.25 * c_probe.distinct_values(product, 50_000)


SWAP = """
network swap

automaton sw
  var x init 1
  var y init 5
  var c init 0

  initial location run
    invariant c >= 0 && c <= 0.07
    flow x' = 0
    flow y' = 0
    flow c' = 1

  edge run -> run guard c == 0.07 do x' := y, y' := x, c' := 0
"""

RESETS = """
network resets

automaton r
  var x init 0
  var y init 0

  initial location up
    invariant x >= 0 && x <= 0.2
    flow x' = 1
    flow y' = 0

  edge up -> up guard x == 0.2 do x' := 0, y' := y + 1
"""


@needs_cc
def test_a_swap_is_staged_and_matches_the_generic_engine(tmp_path):
    """x' := y reads what y' := x writes, so every update of the edge goes through a temporary."""
    swa = swa_of(SWAP, "sw")
    unit = emit_c(swa)
    assert "double t0_x = v_y;" in unit.automaton_source
    assert "double t1_y = v_x;" in unit.automaton_source
    assert "v_c = s0_c;" not in unit.automaton_source  # c' := 0 overwrites the snapped c, and no update reads it
    trace = interpreter_trace(swa, 40)
    assert [row.split(",")[3:5] for row in trace.splitlines()[8:11]] == [["1", "5"], ["5", "1"], ["5", "1"]]
    assert (binary_trace(unit, tmp_path, ["40"]).stdout, interpreter_trace(swa, 40, engine="compiled")) == (trace, trace)


@needs_cc
def test_an_independent_reset_needs_no_temporary(tmp_path):
    """x' := 0 and y' := y + 1 read nothing the other writes: both are assigned directly, in C and in
    Python, and the snapped x, which no update reads, is not copied in."""
    swa = swa_of(RESETS, "r")
    unit = emit_c(swa)
    for source in (unit.automaton_source, _runner_source(swa, False), _runner_source(swa, True)):
        assert re.search(r"\bt\d_[xy]\b", source) is None
        assert re.search(r"\bv_x = s0_x\b", source) is None
    assert "            v_x = 0;\n            v_y = v_y + 1;\n" in unit.automaton_source
    trace = interpreter_trace(swa, 100)
    assert [row.split(",")[3:5] for row in trace.splitlines()[21:24]] == [["0.2", "0"], ["0", "1"], ["0", "1"]]
    assert (binary_trace(unit, tmp_path, ["100"]).stdout, interpreter_trace(swa, 100, engine="compiled")) == (trace, trace)


SAW_WRAP = SAWTOOTH.replace("  var x init 0", "  var x init 0\n  output WRAP").replace("x' := 0", "x' := 0 emit WRAP")


@needs_cc
@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 20), Fraction(1, 8), Fraction(3, 2), Fraction(1),
                                   Fraction(2), Fraction(1, 3)], ids=str)
def test_tick_and_time_stamps_cross_every_decimal_rollover(tmp_path, delta):
    """100,002 rows: the tick crosses 9 -> 10, 99 -> 100, 999 -> 1000 and 99,999 -> 100,000, and so does
    the driver's decimal counter, whose digits the time field copies at 1/100 and 1, with the point
    moved in j = 2 or 0 digits; every other delta writes its time field with ``fmt_g``."""
    swa = swa_of(SAW_WRAP, "saw", delta)
    proc = binary_trace(emit_c(swa), tmp_path, ["100002"])
    trace = interpreter_trace(swa, 100002)
    assert (proc.returncode, proc.stdout) == (0, trace)
    rows = trace.splitlines()[1:]
    for t in (9, 10, 99, 100, 999, 1000, 99999, 100000, 100001):
        assert rows[t].startswith(f"{t},{time_field(t, delta)},")
    assert "WRAP" in trace


def interpreter_trace_prefix_of_stuck(swa):
    from syncha.swa import UnreachableState

    buf = io.StringIO()
    try:
        simulate(swa, 10, out=buf, engine="generic")
    except UnreachableState:
        pass
    return buf.getvalue()


# Compares the driver's formatter with snprintf("%.15g") on N doubles of each class and prints each
# class's mismatches; the first few mismatched values go to stderr.
FORMAT_HARNESS = r"""
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

%s
static unsigned long long r = 88172645463325252ULL;

static unsigned long long next(void) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    return r;
}

static double pick(int kind) {
    unsigned long long b;
    double v;
    int x, s;
    switch (kind) {
    case 0:  /* random bit patterns */
        b = next();
        memcpy(&v, &b, sizeof v);
        return v;
    case 1:  /* 2^-70 to 2^40 */
        return ldexp(1 + (next() >> 11) * 0x1p-53, (int)(next() %% 110) - 70);
    case 2:  /* short decimals: n / 10^j, correctly rounded */
        return (double)(next() %% 1000000000000ULL) / pow(10, (int)(next() %% 13));
    case 3:  /* exponential decays, as witnesses step them */
        return (double)(next() %% 300) + ((double)(next() %% 2001) - 1000)
            * exp(-1e-4 * (next() %% 1000) * (double)(next() %% 100000));
    case 4:  /* within 32 ulps of 10^-5 .. 10^20 */
        v = pow(10, (int)(next() %% 26) - 5);
        memcpy(&b, &v, sizeof b);
        b += next() %% 65 - 32;
        memcpy(&v, &b, sizeof v);
        return v;
    case 5:  /* exact ties at the 16th digit: x + 1 integer digits and 15 - x fraction digits, the last a 5 */
        x = (int)(next() %% 15);
        s = 15 - x;
        v = pow(10, x);
        v += (double)(next() %% (unsigned long long)(9 * v));
        return v + ldexp((double)(2 * (next() %% (1ULL << (s - 1))) + 1), -s);
    default:  /* negatives of the others */
        return -fabs(pick((int)(next() %% 6)));
    }
}

int main(int argc, char **argv) {
    long n = argc > 1 ? atol(argv[1]) : 1000000, i;
    char mine[32], ref[32];
    int kind, shown = 0;
    for (kind = 0; kind < 7; kind++) {
        long bad = 0;
        for (i = 0; i < n; i++) {
            double v = pick(kind);
            int len = fmt_g(mine, v);
            if (len != snprintf(ref, sizeof ref, "%%.15g", v) || memcmp(mine, ref, len)) {
                if (shown++ < 10) fprintf(stderr, "%%a: %%.*s, not %%s\n", v, len, mine, ref);
                bad++;
            }
        }
        printf("%%ld\n", bad);
    }
    return 0;
}
"""


@needs_cc
def test_fmt_g_writes_what_snprintf_writes(tmp_path):
    """10**6 doubles of each of seven classes, formatted by the driver's ``fmt_g`` and by ``%.15g``: no
    byte differs.  The classes reach both sides of the range ``fmt_g`` formats itself (1 to
    999999999999999.5), the carry of rounding into another digit and the ties it rounds to even."""
    src = tmp_path / "fmt.c"
    src.write_text(FORMAT_HARNESS % _C_FORMAT)
    cmd = [find_cc(), "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2", str(src), "-lm",
           "-o", str(tmp_path / "fmt")]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    proc = subprocess.run([str(tmp_path / "fmt"), "1000000"], capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, ["0"] * 7, "")


def test_the_formatter_is_printed_once_where_it_is_used(models_dir):
    """``fmt_g`` is the constant's text, printed once, and the time field at a delta that is no short decimal
    calls it (a driver without values has it only for that field: see the next test)."""
    for delta in (Fraction(1, 100), Fraction(1, 3)):
        unit = emit_c(product_of(load_model(models_dir / "watertank.pha"), delta))
        assert unit.driver_source.count(_C_FORMAT) == 1
        assert ("o += fmt_g(o, t * " in unit.driver_source) == (delta == Fraction(1, 3))


NO_VALUES = """
network quiet

automaton idle
  input GO
  output DONE

  initial location wait

  edge wait -> wait on GO emit DONE
"""

@needs_cc
@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 3)], ids=str)
def test_a_unit_without_values_compiles_strictly_and_runs(tmp_path, delta):
    """No value and no snap: neither ``snap`` nor, unless the time field needs it, ``fmt_g`` is printed, so
    the one translation unit compiles under ``-Werror``."""
    swa = swa_of(NO_VALUES, "idle", delta)
    unit = emit_c(swa)
    assert "snap" not in unit.automaton_source
    assert ("fmt_g" in unit.driver_source) == (delta == Fraction(1, 3))
    cmd = [find_cc(), "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2", str(write_whole(unit, tmp_path)),
           "-lm", "-o", str(tmp_path / "quiet")]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    csv = tmp_path / "go.csv"
    csv.write_text("2,GO\n")
    proc = subprocess.run([str(tmp_path / "quiet"), "6", str(csv)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, interpreter_trace(swa, 6, {2: frozenset({"GO"})}))


# Variables named like the reaction's flags, the snap helper, the formatter and the fabs it calls.
NAMESAKES = """
network namesakes

automaton a
  var e0 init 0
  var snap init 1
  output WRAP

  initial location up
    invariant e0 >= 0 && e0 <= 0.05
    flow e0' = 1
    flow snap' = 0

  edge up -> up guard e0 == 0.05 do e0' := 0, snap' := snap + 1 emit WRAP

automaton b
  var e1 init 0
  var fabs init 2
  var fmt_g init 3
  input WRAP

  initial location wait
    invariant e1 >= 0 && e1 <= 0.07
    flow e1' = 1
    flow fabs' = 0
    flow fmt_g' = 0

  edge wait -> wait on WRAP guard e1 >= 0 && e1 <= 0.07 do fabs' := fmt_g, fmt_g' := fabs
  edge wait -> wait guard e1 == 0.07 do e1' := 0
"""


@needs_cc
def test_variables_named_like_the_new_identifiers_build_and_run(tmp_path):
    """``e0``, ``e1``, ``snap``, ``fabs`` and ``fmt_g`` are model variables here: they are named by their role,
    and the binary writes the generic engine's trace."""
    product = product_of(parse_model(NAMESAKES))
    unit = emit_c(product)
    for name in ("e0", "e1", "snap", "fabs", "fmt_g"):
        assert f"double v_{name} = " in unit.automaton_source
    assert "int e0 = " in unit.automaton_source and "static double snap(" in unit.automaton_source
    proc = binary_trace(unit, tmp_path, ["400"])
    trace = interpreter_trace(product, 400)
    assert (proc.returncode, proc.stdout) == (0, trace)
    assert len({row.split(",")[4] for row in trace.splitlines()[1:]}) > 5  # snap counts the wraps


@pytest.fixture(scope="module")
def c_names():
    """Every identifier of the four headers the units include, preprocessed and as macro definitions, in the
    compiler's default mode (`build_binary`'s) and under -std=c99, and every name the templates print."""
    cc = find_cc()
    headers = "".join(f"#include <{h}.h>\n" for h in ("math", "stdio", "stdlib", "string"))
    names = set()
    for flags in ([], ["-std=c99"]):
        for mode in ([], ["-dM"]):
            proc = subprocess.run([cc, *flags, "-x", "c", "-E", *mode, "-"], input=headers, capture_output=True,
                                  text=True, timeout=60, check=True)
            names.update(re.findall(r"\b[A-Za-z_]\w*", re.sub(r"(?m)^# .*", "", proc.stdout)))
    unit = emit_c(product_of(parse_model(fuzz_network(42)), Fraction(1, 3)))  # with snap and fmt_g
    names.update(re.findall(r"\b[A-Za-z_]\w*", unit.automaton_source + unit.driver_source))
    return sorted(name for name in names if name not in KEYWORDS)


def clashing_network(seed: int, names: list[str]) -> str:
    """`fuzz_network(seed)` with its variables named ``sin``, ``puts``, ``int``, ``char`` and then a sample
    of `names`, its first automaton ``SEEK_CU`` (``SEEK_CUR`` is a macro of <stdio.h>) and the others
    from the sample.  A name the model already uses for something else is not drawn."""
    text = fuzz_network(seed)
    variables = re.findall(r"(?m)^  var (\w+)", text)
    automata = re.findall(r"(?m)^automaton (\w+)", text)
    fixed = ["sin", "puts", "int", "char", "SEEK_CU"]
    taken = set(re.findall(r"\b[A-Za-z_]\w*", text)) | set(fixed)
    drawn = random.Random(seed).sample([n for n in names if n not in taken], len(variables) + len(automata) - 5)
    new = fixed[:4] + drawn[:len(variables) - 4] + fixed[4:] + drawn[len(variables) - 4:]
    renamed = dict(zip(variables + automata, new))
    return re.sub(r"\b[A-Za-z_]\w*", lambda m: renamed.get(m[0], m[0]), text)


@needs_cc
@pytest.mark.parametrize("seed", [0, 2, 8])
def test_model_names_that_c_declares_build_and_run(c_names, tmp_path, seed):
    """A network whose variables and automata bear names of the C library and of the templates builds
    under -Werror, in the default mode and under -std=c99, as a network and as its first part alone
    (``SEEK_CU``, as ``syncha compile`` writes it), and each binary writes the generic engine's trace."""
    net = parse_model(clashing_network(seed, c_names))
    assert {"sin", "puts", "int", "char"} <= {v for ha in net.automata for v in ha.variables}
    assert net.automata[0].name == "SEEK_CU"
    stimulus = {t: frozenset({"GO"}) for t in range(7, 300, 23)}
    csv = tmp_path / "go.csv"
    csv.write_text("".join(f"{t},GO\n" for t in stimulus))

    def run(swa, engine):
        buf = io.StringIO()
        try:
            simulate(swa, 300, stimulus, out=buf, engine=engine)
        except UnreachableState:
            return 3, buf.getvalue()
        return 0, buf.getvalue()

    for swa in (product_of(net), compile_automaton(net.automata[0], Fraction(1, 100))[0]):
        trace = run(swa, "generic")
        assert run(swa, "compiled") == trace
        unit = emit_c(swa)
        for std in ([], ["-std=c99", "-pedantic"]):
            binary = tmp_path / "clash"
            cmd = [find_cc(), *std, "-Wall", "-Wextra", "-Werror", "-O2", str(write_whole(unit, tmp_path)), "-lm",
                   "-o", str(binary)]
            build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            assert build.returncode == 0, build.stderr
            proc = subprocess.run([str(binary), "300", str(csv)], capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout) == trace
