from fractions import Fraction

import pytest

from syncha.expr import AffineExpr, Interval
from syncha.model import (
    ModelSemanticsError,
    ModelSyntaxError,
    format_network,
    load_model,
    parse_model,
    validate_references,
)


def semantic_codes(text):
    """Parse a deliberately broken model and return its diagnostic codes."""
    with pytest.raises(ModelSemanticsError) as exc_info:
        parse_model(text)
    return [d.code for d in exc_info.value.diagnostics]


MINI = """
network mini

automaton m
  var x init 0

  initial location a
    invariant x >= 0 && x <= 10
    flow x' = 1

  location b
    invariant x >= 0
    flow x' = -2 * x

  edge a -> b guard x == 10
  edge b -> a guard x == 0 do x' := 0
"""


class TestParsing:
    def test_empty_document_is_a_syntax_error(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("")
        with pytest.raises(ModelSyntaxError):
            parse_model("# nothing but a comment\n\n")

    def test_watertank_structure(self, watertank_net):
        net = watertank_net
        assert net.name == "watertank"
        assert [a.name for a in net.automata] == ["tank", "burner"]

        tank = net.automaton("tank")
        assert tank.variables == ("x",)
        assert tank.init_values == (("x", Fraction(20)),)
        assert tank.inputs == ("ON", "OFF")
        assert tank.outputs == ()
        assert tank.initial_location == "t1"
        assert [loc.name for loc in tank.locations] == ["t1", "t2", "t3", "t4"]
        assert len(tank.edges) == 6

        burner = net.automaton("burner")
        assert burner.outputs == ("ON", "OFF")
        assert [e.emits for e in burner.edges] == [("ON",), ("OFF",)]

    def test_watertank_edge_details(self, watertank_net):
        tank = watertank_net.automaton("tank")
        first = tank.edges[0]
        assert (first.src, first.dst) == ("t1", "t2")
        assert first.event.present == ("ON",)
        assert first.event.absent == ("OFF",)
        (guard,) = first.guard.conjuncts
        assert (guard.variable, guard.op, guard.bound) == ("x", "==", Fraction(20))

        reset = watertank_net.automaton("burner").edges[0]
        assert reset.updates == (("c", AffineExpr(Fraction(0), Fraction(0), "c")),)

    def test_decimal_coefficients_parse_exactly(self, watertank_net):
        t2 = watertank_net.automaton("tank").location("t2")
        rhs = t2.flow_for("x").rhs
        affine = rhs.as_affine("x")
        assert affine.a == Fraction(-3, 40)
        assert affine.b == Fraction(45, 4)

    def test_trigger_events_in_first_use_order(self, watertank_net):
        assert watertank_net.automaton("tank").trigger_events() == ("ON", "OFF")
        assert watertank_net.automaton("burner").trigger_events() == ()

    def test_lookup_failures_raise_keyerror(self, watertank_net):
        with pytest.raises(KeyError, match="no automaton"):
            watertank_net.automaton("pump")
        with pytest.raises(KeyError, match="no location"):
            watertank_net.automaton("tank").location("t9")

    def test_entry_interval_prefers_annotation(self, watertank_net):
        t2 = watertank_net.automaton("tank").location("t2")
        assert t2.entry_interval("x") == Interval.closed(Fraction(20), Fraction(100))

        net = parse_model(MINI)
        loc_a = net.automaton("m").location("a")
        assert loc_a.boundary_for("x") is None
        assert loc_a.entry_interval("x") == Interval.closed(Fraction(0), Fraction(10))

    def test_disjunction_is_rejected(self):
        bad = MINI.replace("invariant x >= 0 && x <= 10", "invariant x <= 1 || x >= 3")
        with pytest.raises(ModelSyntaxError, match="disjunction"):
            parse_model(bad)

    def test_comparison_needs_variable_and_constant(self):
        bad = MINI.replace("guard x == 10", "guard x == x")
        with pytest.raises(ModelSyntaxError, match="one variable to one constant"):
            parse_model(bad)

    def test_update_must_be_affine_in_target(self):
        bad = MINI.replace("do x' := 0", "do x' := x * x")
        with pytest.raises(ModelSyntaxError, match="affine"):
            parse_model(bad)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelSyntaxError) as exc_info:
            parse_model("network n\nautomaton a\n  var x init\n")
        assert exc_info.value.line == 3
        assert "line 3" in str(exc_info.value)


class TestValidation:
    def test_valid_network_has_no_diagnostics(self, watertank_net):
        assert validate_references(watertank_net) == []

    def test_edge_to_undeclared_location(self, models_dir):
        text = (models_dir / "watertank.pha").read_text()
        broken = text.replace("edge t4 -> t1 guard", "edge t4 -> t9 guard")
        with pytest.raises(ModelSemanticsError) as exc_info:
            parse_model(broken)
        (diag,) = exc_info.value.diagnostics
        assert diag.code == "UNKNOWN_LOCATION"
        assert "t9" in diag.message
        assert str(diag).startswith("UNKNOWN_LOCATION (line ")

    def test_duplicate_flow(self):
        broken = MINI.replace("flow x' = 1", "flow x' = 1\n    flow x' = 2")
        assert semantic_codes(broken) == ["DUPLICATE_FLOW"]

    def test_unknown_variable_in_guard(self):
        broken = MINI.replace("guard x == 10", "guard q == 10")
        assert semantic_codes(broken) == ["UNKNOWN_VARIABLE"]

    def test_unknown_event_on_edge(self):
        broken = MINI.replace("edge a -> b guard x == 10", "edge a -> b on GO")
        assert semantic_codes(broken) == ["UNKNOWN_EVENT"]

    def test_emit_requires_output_declaration(self):
        broken = MINI.replace(
            "  var x init 0", "  var x init 0\n  input GO"
        ).replace("edge a -> b guard x == 10", "edge a -> b guard x == 10 emit GO")
        assert semantic_codes(broken) == ["EMIT_NOT_OUTPUT"]

    def test_duplicate_variable(self):
        broken = MINI.replace("  var x init 0", "  var x init 1\n  var x init 0")
        codes = semantic_codes(broken)
        assert "DUPLICATE_VARIABLE" in codes

    def test_missing_init_on_hand_built_automaton(self, watertank_net):
        tank = watertank_net.automaton("tank")
        bare = tank.replace(init_values=())
        net = watertank_net.replace(automata=(bare,))
        codes = [d.code for d in validate_references(net)]
        assert codes == ["MISSING_INIT"]

    def test_duplicate_automaton(self):
        body = MINI + MINI.split("network mini")[1]
        assert "DUPLICATE_AUTOMATON" in semantic_codes(body)

    def test_shared_variable_is_a_write_conflict(self):
        other = """
automaton other
  var x init 5

  initial location only
    invariant x >= 0
    flow x' = 0
"""
        assert "SHARED_WRITE_CONFLICT" in semantic_codes(MINI + other)

    def test_diagnostics_accumulate_in_source_order(self):
        broken = MINI.replace("guard x == 10", "guard q == 10").replace(
            "edge b -> a guard x == 0 do x' := 0",
            "edge b -> zzz guard x == 0 do x' := 0",
        )
        with pytest.raises(ModelSemanticsError) as exc_info:
            parse_model(broken)
        diags = exc_info.value.diagnostics
        assert [d.code for d in diags] == ["UNKNOWN_VARIABLE", "UNKNOWN_LOCATION"]
        assert diags[0].line < diags[1].line


class TestSerialization:
    def test_watertank_round_trips(self, watertank_net):
        text = format_network(watertank_net)
        assert parse_model(text) == watertank_net

    def test_bundled_models_round_trip(self, models_dir):
        for path in sorted(models_dir.glob("*.pha")):
            net = load_model(path)
            assert parse_model(format_network(net)) == net

    def test_formatted_text_is_stable(self, watertank_net):
        once = format_network(watertank_net)
        assert format_network(parse_model(once)) == once
