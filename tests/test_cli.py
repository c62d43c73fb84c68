import io
import json
import subprocess

import pytest

from syncha import shagen, whacheck
from syncha.cli import main
from syncha.codegen import find_cc
from syncha.swa import simulate
from oracles import parse_trace


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ctl's guard reads x, which plant owns
PEEK = """network peek

automaton plant
  var x init 0

  initial location up
    invariant x >= 0 && x <= 10
    flow x' = 1

  edge up -> up guard x == 10 do x' := 0

automaton ctl
  var y init 5

  initial location idle
    invariant y == 5

  edge idle -> idle guard y == 5 && x >= 3
"""


class TestCheck:
    def test_passing_model(self, capsys, models_dir):
        code, out, err = invoke(capsys, "check", str(models_dir / "watertank.pha"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tank: PASS"
        assert any(l.startswith("tank: warning: fairness required") for l in lines)
        assert "burner: PASS" in lines

    def test_failing_model(self, capsys, fixtures_dir):
        code, out, err = invoke(capsys, "check", str(fixtures_dir / "nonmono.pha"))
        assert code == 1
        assert "box: FAIL (1 violation)" in out
        assert "NON_MONOTONE" in err
        assert "changes sign inside the invariant bounds [0, 300]" in err

    def test_no_closed_form_model(self, capsys, fixtures_dir):
        code, out, err = invoke(capsys, "check", str(fixtures_dir / "squared.pha"))
        assert code == 1
        assert "NO_CLOSED_FORM" in err

    def test_initial_value_outside_its_boundary_fails(self, capsys, fixtures_dir):
        code, out, err = invoke(capsys, "check", str(fixtures_dir / "boundaryprobe.pha"))
        assert code == 1
        assert "probe: FAIL (1 violation)" in out
        assert "INIT_OUTSIDE_BOUNDARY (line 10): boundary of x in up" in err

    def test_edge_entering_outside_its_boundary_fails(self, capsys, fixtures_dir):
        code, out, err = invoke(capsys, "check", str(fixtures_dir / "entryprobe.pha"))
        assert code == 1
        assert "probe: FAIL (1 violation)" in out
        assert "ENTRY_OUTSIDE_BOUNDARY (line 24): edge start -> up: enters x in [0, 0]" in err

    def test_read_of_a_siblings_variable_fails_with_its_line(self, capsys, tmp_path):
        """``check`` refuses, with the edge's line, the guard that the run cannot lower."""
        model = tmp_path / "peek.pha"
        model.write_text(PEEK, encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(model))
        assert code == 1
        assert out.splitlines() == ["plant: PASS", "ctl: FAIL (1 violation)"]
        assert err == "ctl: FOREIGN_READ (line 18): guard of edge idle -> idle: reads x, which ctl does not own\n"
        code, out, err = invoke(capsys, "compose-and-simulate", str(model), "--ticks", "1")
        assert (code, out) == (1, "")
        assert "ctl: FOREIGN_READ (line 18)" in err

    def test_syntax_error_reports_position(self, capsys, fixtures_dir):
        code, out, err = invoke(capsys, "check", str(fixtures_dir / "disjunct.pha"))
        assert code == 2
        assert "error: line" in err
        assert "disjunction is not supported" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "check", str(tmp_path / "ghost.pha"))
        assert code == 2
        assert err.startswith("error:")

    def test_bad_delta_is_a_usage_error(self, capsys, models_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", str(models_dir / "watertank.pha"), "--delta", "zero"])
        assert exc_info.value.code == 2
        assert "invalid tick length" in capsys.readouterr().err

    def test_nonpositive_delta_rejected(self, capsys, models_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", str(models_dir / "watertank.pha"), "--delta", "0"])
        assert exc_info.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "compose-and-simulate", "compile"])
class TestTickCount:
    def test_negative_tick_count_is_a_usage_error(self, capsys, models_dir, tmp_path, command):
        with pytest.raises(SystemExit) as exc_info:
            main([command, str(models_dir / "thermostat.pha"), "--ticks", "-5", "--out", str(tmp_path / "out")])
        assert exc_info.value.code == 2
        assert "argument --ticks: tick count must not be negative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_tick_count_that_is_no_integer_is_a_usage_error(self, capsys, models_dir, command):
        with pytest.raises(SystemExit) as exc_info:
            main([command, str(models_dir / "thermostat.pha"), "--ticks", "1.5"])
        assert exc_info.value.code == 2
        assert "invalid tick count '1.5'" in capsys.readouterr().err

    def test_zero_ticks_are_allowed(self, capsys, models_dir, tmp_path, command):
        code, _, _ = invoke(capsys, command, str(models_dir / "thermostat.pha"), "--ticks", "0",
                            "--out", str(tmp_path / "out"))
        assert code == 0


class TestSimulate:
    def test_requires_automaton_choice_on_multi_model(self, capsys, models_dir):
        code, out, err = invoke(
            capsys, "simulate", str(models_dir / "watertank.pha"), "--ticks", "3"
        )
        assert code == 2
        assert "pick one with --automaton" in err

    def test_unknown_automaton_name(self, capsys, models_dir):
        code, out, err = invoke(
            capsys,
            "simulate", str(models_dir / "watertank.pha"),
            "--automaton", "pump", "--ticks", "1",
        )
        assert code == 2
        assert "no automaton 'pump'" in err

    def test_trace_to_stdout(self, capsys, models_dir):
        code, out, err = invoke(
            capsys,
            "simulate", str(models_dir / "thermostat.pha"), "--ticks", "5",
        )
        assert code == 0
        header, rows = parse_trace(out)
        assert header == ["tick", "time", "location", "x", "inputs", "outputs"]
        assert len(rows) == 5
        assert rows[0].location == "cooling"

    def test_trace_to_file_with_stimulus(self, capsys, models_dir, fixtures_dir, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, err = invoke(
            capsys,
            "simulate", str(models_dir / "watertank.pha"),
            "--automaton", "tank",
            "--ticks", "10",
            "--stimulus", str(fixtures_dir / "on_at_5.csv"),
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        _, rows = parse_trace(out_path.read_text())
        assert [r.location for r in rows] == ["t1"] * 6 + ["t2"] * 4
        assert rows[6].inputs == ("ON",)

    def test_unknown_stimulus_events_warn(self, capsys, models_dir, tmp_path):
        stim = tmp_path / "weird.csv"
        stim.write_text("tick,events\n1,WARP\n")
        code, out, err = invoke(
            capsys,
            "simulate", str(models_dir / "thermostat.pha"),
            "--ticks", "2", "--stimulus", str(stim),
        )
        assert code == 0
        assert "unknown events, ignored: WARP" in err

    def test_stuck_run_exits_3(self, capsys, fixtures_dir):
        code, out, err = invoke(
            capsys, "simulate", str(fixtures_dir / "stuckling.pha"), "--ticks", "10"
        )
        assert code == 3
        assert "stuck at tick 6" in err

    @pytest.mark.parametrize("engine", ["generic", "compiled"])
    def test_overflow_is_a_one_line_error(self, capsys, fixtures_dir, tmp_path, engine):
        # exp overflows a double near tick 70,978; C writes inf from there on
        code, out, err = invoke(
            capsys, "simulate", str(fixtures_dir / "blowup.pha"), "--ticks", "80000",
            "--engine", engine, "--out", str(tmp_path / "trace.csv"),
        )
        assert code == 3
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert errors == ["error: automaton blow: a value overflowed the float range (math range error)"]

    def test_failing_model_exits_1(self, capsys, fixtures_dir):
        code, out, err = invoke(
            capsys, "simulate", str(fixtures_dir / "nonmono.pha"), "--ticks", "1"
        )
        assert code == 1
        assert "NON_MONOTONE" in err

    def test_engine_flag(self, capsys, models_dir):
        traces = []
        for engine in ("generic", "compiled"):
            code, out, err = invoke(
                capsys,
                "simulate", str(models_dir / "thermostat.pha"),
                "--ticks", "50", "--engine", engine,
            )
            assert code == 0
            traces.append(out)
        assert traces[0] == traces[1]


class TestComposeAndSimulate:
    def test_product_trace(self, capsys, models_dir):
        code, out, err = invoke(
            capsys,
            "compose-and-simulate", str(models_dir / "watertank.pha"),
            "--ticks", "4",
        )
        assert code == 0
        header, rows = parse_trace(out)
        assert header == ["tick", "time", "location", "x", "c", "inputs", "outputs"]
        assert all(r.location == "t1b1" for r in rows)
        assert "warning: fairness required" in err

    def test_gate_follows_the_train(self, capsys, models_dir):
        code, out, err = invoke(
            capsys,
            "compose-and-simulate", str(models_dir / "traingate.pha"),
            "--ticks", "2200",
        )
        assert code == 0
        _, rows = parse_trace(out)
        assert rows[0].location == "farup"
        assert rows[2084].outputs == ("CLOSE",)
        assert rows[2085].location == "neardown"

    def test_checks_each_automaton_once(self, capsys, models_dir, monkeypatch):
        checked = []
        real_check = whacheck.check_wha

        def counting_check(ha):
            checked.append(ha.name)
            return real_check(ha)

        monkeypatch.setattr(shagen, "check_wha", counting_check)
        monkeypatch.setattr("syncha.cli.check_wha", counting_check, raising=False)
        code, out, err = invoke(
            capsys,
            "compose-and-simulate", str(models_dir / "watertank.pha"), "--ticks", "3",
        )
        assert code == 0
        assert sorted(checked) == ["burner", "tank"]

    def test_ill_formed_part_is_reported_with_its_line(self, capsys, fixtures_dir):
        code, out, err = invoke(
            capsys, "compose-and-simulate", str(fixtures_dir / "nonmono.pha"), "--ticks", "1"
        )
        assert code == 1
        assert out == ""
        assert "box: NON_MONOTONE (line 11): flow x' in warm" in err

    def test_stuck_network_exits_3_under_both_engines(self, capsys, fixtures_dir, tmp_path):
        stim = tmp_path / "go.csv"
        stim.write_text("5,GO\n")
        messages = []
        for engine in ("generic", "compiled"):
            code, out, err = invoke(
                capsys,
                "compose-and-simulate", str(fixtures_dir / "stucknet.pha"),
                "--ticks", "10", "--stimulus", str(stim), "--engine", engine,
            )
            assert code == 3
            messages.append(err[err.index("stuck at "):])
        assert messages[0] == messages[1] == (
            "stuck at tick 6 in state gocreep: no evolution step and no enabled transition (k = 6)\n"
            "  x = 0.059999999999999998\n"
            "  y = 0.059999999999999998\n"
            "  visible: GO\n"
        )


class TestCompile:
    def test_writes_sources_and_ir(self, capsys, models_dir, tmp_path):
        code, out, err = invoke(
            capsys,
            "compile", str(models_dir / "watertank.pha"),
            "--automaton", "burner",
            "--out", str(tmp_path),
            "--ticks", "777",
            "--emit-ir",
        )
        assert code == 0
        paths = out.splitlines()
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "burner.c", "burner_main.c", "burner.ir.json",
        ]
        assert (tmp_path / "burner.c").exists()
        assert "long ticks = 777;" in (tmp_path / "burner_main.c").read_text()
        ir = json.loads((tmp_path / "burner.ir.json").read_text())
        assert ir["automaton"] == "burner"
        assert [loc["name"] for loc in ir["locations"]] == ["b1", "b2"]

    def test_all_automata_by_default(self, capsys, models_dir, tmp_path):
        code, out, err = invoke(
            capsys,
            "compile", str(models_dir / "watertank.pha"), "--out", str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["burner.c", "burner_main.c", "tank.c", "tank_main.c"]

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")
    def test_baked_stimulus_path_is_escaped(self, capsys, models_dir, fixtures_dir, tank_swa, tmp_path):
        """A stimulus file named with a quote, a backslash and a space, read by a driver run without argv[2]."""
        stim = tmp_path / 'on "at" 5\\ now.csv'
        stim.write_text((fixtures_dir / "on_at_5.csv").read_text())
        code, out, err = invoke(
            capsys,
            "compile", str(models_dir / "watertank.pha"), "--automaton", "tank",
            "--out", str(tmp_path), "--ticks", "40", "--stimulus", str(stim),
        )
        assert code == 0
        binary = tmp_path / "tank"
        cmd = [find_cc(), "-O2", str(tmp_path / "tank.c"), str(tmp_path / "tank_main.c"), "-lm", "-o", str(binary)]
        build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr
        proc = subprocess.run([str(binary)], capture_output=True, text=True, timeout=60)
        buf = io.StringIO()
        simulate(tank_swa, 40, {5: frozenset({"ON"})}, out=buf, engine="generic")
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", buf.getvalue())
        assert ",ON," in proc.stdout

    def test_rejects_failing_model(self, capsys, fixtures_dir, tmp_path):
        code, out, err = invoke(
            capsys,
            "compile", str(fixtures_dir / "squared.pha"), "--out", str(tmp_path),
        )
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_more_than_64_events_is_a_usage_error(self, capsys, tmp_path):
        names = " ".join(f"E{i}" for i in range(65))
        model = tmp_path / "wide.pha"
        model.write_text(
            "network wide\n\nautomaton much\n  var x init 0\n"
            f"  input {names}\n\n  initial location idle\n"
            "    invariant x == 0\n    flow x' = 0\n",
            encoding="utf-8",
        )
        code, out, err = invoke(capsys, "compile", str(model), "--out", str(tmp_path / "c"))
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: automaton 'much' has 65 events, more than the C driver's limit "
            "of 64 (it packs events into a 64-bit stimulus mask)"
        )

    def test_colliding_file_names_are_a_usage_error(self, capsys, tmp_path):
        """``a``'s driver and ``a_main``'s reaction would both be ``a_main.c``: nothing is written."""
        model = tmp_path / "twins.pha"
        model.write_text(
            "network twins\n\n" + "".join(f"automaton {name}\n  var {var} init 0\n\n  initial location idle\n    invariant {var} == 0\n\n"
                    for name, var in (("a", "x"), ("a_main", "y"))),
            encoding="utf-8",
        )
        outdir = tmp_path / "c"
        code, out, err = invoke(capsys, "compile", str(model), "--out", str(outdir))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: automata a and a_main both write {outdir / 'a_main.c'}"
        assert not outdir.exists()

    def test_an_automaton_named_main_keeps_its_name(self, capsys, tmp_path):
        model = tmp_path / "main.pha"
        model.write_text("network main\n\nautomaton main\n  var x init 0\n\n  initial location idle\n    invariant x == 0\n",
                         encoding="utf-8")
        code, out, err = invoke(capsys, "compile", str(model), "--out", str(tmp_path))
        assert code == 0
        assert [p.rsplit("/", 1)[-1] for p in out.splitlines()] == ["main.c", "main_main.c"]
        assert "void react_main(void) {" in (tmp_path / "main.c").read_text()

    def test_rejected_automaton_leaves_no_files(self, capsys, tmp_path):
        # the first automaton compiles; the second has too many events
        names = " ".join(f"E{i}" for i in range(65))
        model = tmp_path / "mixed.pha"
        model.write_text(
            "network mixed\n\nautomaton ok\n  var x init 0\n\n"
            "  initial location idle\n    invariant x == 0\n    flow x' = 0\n\n"
            f"automaton much\n  var y init 0\n  input {names}\n\n"
            "  initial location idle\n    invariant y == 0\n    flow y' = 0\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "c"
        code, out, err = invoke(capsys, "compile", str(model), "--out", str(outdir))
        assert code == 2
        assert "automaton 'much' has 65 events" in err
        assert out == ""
        assert not outdir.exists() or list(outdir.glob("*.c")) == []
