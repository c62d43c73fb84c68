from fractions import Fraction

import pytest

from syncha.expr import Comparison, Constraint
from syncha.model import load_model, parse_model
from syncha.whacheck import (
    ENTRY_OUTSIDE_BOUNDARY,
    FOREIGN_READ,
    INIT_OUTSIDE_BOUNDARY,
    NO_CLOSED_FORM,
    NON_CVX_CONSTRAINT,
    NON_MONOTONE,
    check_wha,
    foreign_reads,
)
from oracles import fuzz_model, fuzz_network

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

    def test_edge_entering_outside_the_destination_boundary(self, fixtures_dir):
        # the dwell analysis would bound `up` by 500 steps; the run enters
        # `up` at x = 0 on tick 501 and first reaches `done` at tick 1503
        report = check_wha(load_model(fixtures_dir / "entryprobe.pha").automaton("probe"))
        (v,) = report.violations
        assert (v.kind, v.where, v.line) == (ENTRY_OUTSIDE_BOUNDARY, "edge start -> up", 24)
        assert v.detail == "enters x in [0, 0], outside the boundary [5, 5] of up"

    def test_edge_entering_inside_the_destination_boundary_passes(self, fixtures_dir):
        text = (fixtures_dir / "entryprobe.pha").read_text().replace("x' := 0", "x' := 5")
        assert check_wha(parse_model(text).automaton("probe")).passed

    @pytest.mark.parametrize("boundary, update, image", [
        ("[20, 90]", "", "[20, 100]"),  # not updated: the source invariant's projection
        ("[20, 100]", "do x' := 2 * x - 90", "[-50, 110]"),
        ("[-110, -20]", "do x' := -x", None),
        ("[-100, -20]", "do x' := -x - 10", "[-110, -30]"),
    ])
    def test_entry_image_is_the_invariant_mapped_through_the_update(self, boundary, update, image):
        text = WATERTANK_T2_T4.format(boundary=boundary, update=update)
        violations = check_wha(parse_model(text).automaton("tank")).violations
        assert [v.detail for v in violations] == (
            [] if image is None else [f"enters x in {image}, outside the boundary {boundary} of t4"])

    def test_a_closed_guard_on_an_open_invariant_enters_at_the_bound(self):
        # the tick snaps y onto 50 though `rising` never holds it there
        text = SNAPPED.format(boundary="[49, 49]")
        (v,) = check_wha(parse_model(text).automaton("ramp")).violations
        assert v.detail == "enters y in [50, 50], outside the boundary [49, 49] of capped"
        assert check_wha(parse_model(SNAPPED.format(boundary="[50, 50]")).automaton("ramp")).passed

    def test_every_model_fixture_and_fuzzed_model_enters_inside_its_boundaries(self, models_dir, fixtures_dir):
        paths = sorted(models_dir.glob("*.pha")) + sorted(fixtures_dir.glob("*.pha"))
        texts = [path.read_text() for path in paths if path.stem not in ("disjunct", "entryprobe")]
        texts += [fuzz_model(seed) for seed in range(50)] + [fuzz_network(seed) for seed in range(50)]
        kinds = [v.kind for text in texts for ha in parse_model(text).automata for v in check_wha(ha).violations]
        assert ENTRY_OUTSIDE_BOUNDARY not in kinds


WATERTANK_T2_T4 = """
network entries
automaton tank
  var x init 50
  initial location t2
    invariant x >= 20 && x <= 100
    flow x' = 1
    boundary x in [50, 50]
  location t4
    invariant x >= -200 && x <= 200
    flow x' = 0
    boundary x in {boundary}
  edge t2 -> t4 {update}
"""

SNAPPED = """
network snapped
automaton ramp
  var y init 0
  initial location rising
    invariant y < 50
    flow y' = 10.3
  location capped
    invariant y == 50
    flow y' = 0
    boundary y in {boundary}
  edge rising -> capped guard y == 50
"""


PEEKING = """
network peeking

automaton a
  var x init 0

  initial location go
    invariant x >= 0 && z <= 3
    flow x' = 1

  edge go -> go guard y >= 1 && y <= 2 do x' := 2 * y + 1

automaton b
  var y init 0
  var z init 0

  initial location idle
    invariant y == 0
"""


def test_foreign_reads_name_each_place_once_with_its_line():
    """Each place reads another automaton's variable once, however often it names it."""
    net = parse_model(PEEKING)
    reads = foreign_reads(net.automaton("a"))
    assert [(v.kind, v.where, v.detail, v.line) for v in reads] == [
        (FOREIGN_READ, "invariant of go", "reads z, which a does not own", 7),
        (FOREIGN_READ, "guard of edge go -> go", "reads y, which a does not own", 11),
        (FOREIGN_READ, "update on edge go -> go", "reads y, which a does not own", 11),
    ]
    assert check_wha(net.automaton("a")).passed  # an automaton on its own: the four criteria hold
    assert foreign_reads(net.automaton("b")) == ()
