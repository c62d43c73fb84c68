from fractions import Fraction

from syncha.expr import Comparison, Constraint
from syncha.model import load_model, parse_model
from syncha.whacheck import (
    INIT_OUTSIDE_BOUNDARY,
    NO_CLOSED_FORM,
    NON_CVX_CONSTRAINT,
    NON_MONOTONE,
    check_wha,
)

TWO_BAD = """
network twobad

automaton pair
  var x init 0
  var y init 0

  initial location first
    invariant x >= 0 && x <= 300
    flow x' = 0.075 * (150 - x)
    flow y' = 0

  location second
    invariant y >= 0
    flow x' = 0
    flow y' = y * y

  edge first -> second guard x == 300
"""


class TestCheckWha:
    def test_watertank_passes(self, watertank_net):
        for auto in watertank_net.automata:
            report = check_wha(auto)
            assert report.passed
            assert report.verdict == "PASS"
            assert report.violations == ()

    def test_all_bundled_models_pass(self, models_dir):
        for path in sorted(models_dir.glob("*.pha")):
            for auto in load_model(path).automata:
                assert check_wha(auto).passed, f"{path.name}:{auto.name}"

    def test_quadratic_flow_has_no_closed_form(self, fixtures_dir):
        net = load_model(fixtures_dir / "squared.pha")
        report = check_wha(net.automaton("quad"))
        assert not report.passed
        (v,) = report.violations
        assert v.kind == NO_CLOSED_FORM
        assert "x * x" in v.detail
        assert v.where == "flow x' in grow"

    def test_sign_change_inside_bounds(self, fixtures_dir):
        net = load_model(fixtures_dir / "nonmono.pha")
        report = check_wha(net.automaton("box"))
        assert [v.kind for v in report.violations] == [NON_MONOTONE]
        assert "[0, 300]" in report.violations[0].detail

    def test_foreign_variable_flow_rejected(self):
        text = TWO_BAD.replace("flow y' = y * y", "flow y' = 2 * x").replace(
            "x <= 300", "x <= 100"
        )
        report = check_wha(parse_model(text).automaton("pair"))
        (v,) = report.violations
        assert v.kind == NO_CLOSED_FORM
        assert "references other variables" in v.detail or "depends on" in v.detail

    def test_violations_accumulate_in_declaration_order(self):
        net = parse_model(TWO_BAD)
        report = check_wha(net.automaton("pair"))
        assert [v.kind for v in report.violations] == [NON_MONOTONE, NO_CLOSED_FORM]
        assert report.violations[0].where == "flow x' in first"
        assert report.violations[1].where == "flow y' in second"
        assert report.verdict == "FAIL"

    def test_bad_operator_is_a_constraint_violation(self, watertank_net):
        tank = watertank_net.automaton("tank")
        loc = tank.locations[0]
        mangled = loc.replace(invariant=Constraint((Comparison("x", "!=", Fraction(20)),)))
        bad = tank.replace(locations=(mangled,) + tank.locations[1:])
        report = check_wha(bad)
        assert [v.kind for v in report.violations] == [NON_CVX_CONSTRAINT]
        assert report.violations[0].where == "invariant of t1"
        assert "'!='" in report.violations[0].detail

    def test_irrational_bound_is_a_constraint_violation(self, watertank_net):
        tank = watertank_net.automaton("tank")
        edge = tank.edges[1]
        mangled = edge.replace(guard=Constraint((Comparison("x", "==", 100.0),)))
        bad = tank.replace(edges=tank.edges[:1] + (mangled,) + tank.edges[2:])
        report = check_wha(bad)
        (v,) = report.violations
        assert v.kind == NON_CVX_CONSTRAINT
        assert v.where == "guard of edge t2 -> t3"
        assert "not rational" in v.detail

    def test_guard_violations_come_after_location_violations(self):
        text = TWO_BAD.replace("invariant y >= 0", "invariant y >= 0 && y <= 400")
        net = parse_model(text)
        auto = net.automaton("pair")
        edge = auto.edges[0]
        mangled = edge.replace(guard=Constraint((Comparison("", "==", Fraction(1)),)))
        report = check_wha(auto.replace(edges=(mangled,)))
        kinds = [v.kind for v in report.violations]
        assert kinds == [NON_MONOTONE, NO_CLOSED_FORM, NON_CVX_CONSTRAINT]
        assert report.violations[-1].detail == "comparison has no variable"

    def test_report_renders_one_line_per_violation(self):
        net = parse_model(TWO_BAD)
        report = check_wha(net.automaton("pair"))
        lines = str(report).splitlines()
        assert lines[0] == "pair: FAIL"
        assert len(lines) == 1 + len(report.violations)
        assert all(line.startswith("  ") for line in lines[1:])

    def test_to_diagnostics_carries_lines(self):
        net = parse_model(TWO_BAD)
        report = check_wha(net.automaton("pair"))
        diags = report.to_diagnostics()
        assert [d.code for d in diags] == [NON_MONOTONE, NO_CLOSED_FORM]
        assert all(d.line > 0 for d in diags)

    def test_initial_value_outside_the_initial_boundary(self, fixtures_dir):
        # the dwell analysis would start `up` at x = 5 and claim 500 steps;
        # the run enters at x = 0 and first reaches `done` at tick 1001
        report = check_wha(load_model(fixtures_dir / "boundaryprobe.pha").automaton("probe"))
        (v,) = report.violations
        assert (v.kind, v.where, v.line) == (INIT_OUTSIDE_BOUNDARY, "boundary of x in up", 10)
        assert v.detail == "[5, 5] does not contain the initial value 0"

    def test_initial_value_inside_the_boundary_passes(self, fixtures_dir):
        text = (fixtures_dir / "boundaryprobe.pha").read_text().replace("[5, 5]", "[0, 5]")
        assert check_wha(parse_model(text).automaton("probe")).passed
