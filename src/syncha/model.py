"""Hybrid automata networks and their textual model format.

A model file declares one network of automata.  Each automaton owns the
variables it declares, and its invariants, guards and update right-hand
sides read only those: automata share events, not variables
(`whacheck.foreign_reads`, which ``syncha check`` reports).  The
format is line oriented:

    network heater

    automaton tank
      var x init 20
      input ON OFF
      initial location t1
        invariant x == 20
        flow x' = 0
      location t2
        invariant x >= 20 && x <= 100
        flow x' = 0.075 * (150 - x)
        boundary x in [20, 100]
      edge t1 -> t2 on ON && !OFF guard x == 20
      edge t2 -> t1 guard x == 20 do x' := x emit DONE

``#`` starts a comment.  Numbers are decimal rationals (exact, no
floating-point rounding at parse time).  ``boundary`` annotates the
interval of values a location can be entered with; when omitted it
defaults to the invariant's projection onto that variable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

from .expr import (
    AffineExpr,
    Comparison,
    Constraint,
    Interval,
    LinearForm,
    NonlinearExpr,
    NEG_INF,
    POS_INF,
    Rational,
    Record,
    constraint_to_interval,
    format_number,
    lin_add,
    lin_div,
    lin_mul,
    lin_neg,
    lin_sub,
)

KEYWORDS = frozenset(
    "network automaton var init input output initial location invariant "
    "flow boundary edge on guard do emit in".split()
)

FlowRhs = Union[LinearForm, NonlinearExpr]


class ModelError(Exception):
    pass


class ModelSyntaxError(ModelError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ModelSemanticsError(ModelError):
    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__(
            "; ".join(f"{d.code} (line {d.line}): {d.message}" for d in diagnostics)
        )
        self.diagnostics = diagnostics


class Diagnostic(Record):
    """One machine-readable finding about a model."""

    __slots__ = ("code", "message", "line")

    def __init__(self, code: str, message: str, line: int = 0) -> None:
        self._set(code, message, line)

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line else ""
        return f"{self.code}{where}: {self.message}"


class Flow(Record):
    __slots__ = ("variable", "rhs", "line")
    _uncompared = ("line",)

    def __init__(self, variable: str, rhs: FlowRhs, line: int = 0) -> None:
        self._set(variable, rhs, line)


class EventExpr(Record):
    """Conjunction of event literals: all of `present` and none of `absent`."""

    __slots__ = ("present", "absent")

    def __init__(self, present: tuple[str, ...] = (), absent: tuple[str, ...] = ()) -> None:
        self._set(present, absent)

    def is_trivial(self) -> bool:
        return not self.present and not self.absent

    def __str__(self) -> str:
        lits = list(self.present) + [f"!{e}" for e in self.absent]
        return " && ".join(lits) if lits else "true"


class Location(Record):
    __slots__ = ("name", "invariant", "flows", "boundary", "init", "line")
    _uncompared = ("line",)

    def __init__(
        self, name: str, invariant: Constraint = Constraint.true(), flows: tuple[Flow, ...] = (),
        boundary: tuple[tuple[str, Interval], ...] = (),
        init: tuple[tuple[str, Rational], ...] | None = None, line: int = 0,
    ) -> None:
        self._set(name, invariant, flows, boundary, init, line)

    def flow_for(self, variable: str) -> Flow | None:
        return next((f for f in self.flows if f.variable == variable), None)

    def boundary_for(self, variable: str) -> Interval | None:
        return next((iv for v, iv in self.boundary if v == variable), None)

    def entry_interval(self, variable: str) -> Interval:
        """Annotated entry boundary, defaulting to the invariant projection."""
        explicit = self.boundary_for(variable)
        if explicit is not None:
            return explicit
        return constraint_to_interval(self.invariant, variable)


class Edge(Record):
    __slots__ = ("src", "dst", "event", "guard", "updates", "emits", "line")
    _uncompared = ("line",)

    def __init__(
        self, src: str, dst: str, event: EventExpr = EventExpr(), guard: Constraint = Constraint.true(),
        updates: tuple[tuple[str, AffineExpr], ...] = (), emits: tuple[str, ...] = (), line: int = 0,
    ) -> None:
        self._set(src, dst, event, guard, updates, emits, line)


class HybridAutomaton(Record):
    __slots__ = ("name", "variables", "init_values", "inputs", "outputs", "locations", "edges",
                 "initial_location", "line")
    _uncompared = ("line",)

    def __init__(
        self, name: str, variables: tuple[str, ...], init_values: tuple[tuple[str, Rational], ...],
        inputs: tuple[str, ...], outputs: tuple[str, ...], locations: tuple[Location, ...],
        edges: tuple[Edge, ...], initial_location: str, line: int = 0,
    ) -> None:
        self._set(name, variables, init_values, inputs, outputs, locations, edges, initial_location, line)

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(f"automaton {self.name} has no location {name!r}")

    def edges_from(self, name: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.src == name)

    def trigger_events(self) -> tuple[str, ...]:
        """Events that can fire some edge, in first-use order.

        Intra-tick evolution requires all of these to be silent, matching
        the generated reaction's `!E1 && !E2 && ...` prefix.
        """
        return tuple(dict.fromkeys(ev for e in self.edges for ev in e.event.present))


class Network(Record):
    __slots__ = ("name", "automata")

    def __init__(self, name: str, automata: tuple[HybridAutomaton, ...]) -> None:
        self._set(name, automata)

    def automaton(self, name: str) -> HybridAutomaton:
        for a in self.automata:
            if a.name == name:
                return a
        raise KeyError(f"network {self.name} has no automaton {name!r}")


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<op>->|:=|==|<=|>=|&&|\|\||[='!()\[\],+\-*/<>])
    """,
    re.VERBOSE,
)


class _Token(Record):
    __slots__ = ("kind", "text", "line", "col", "end")

    def __init__(
        self, kind: str,  # name | number | op
        text: str, line: int, col: int,
        end: int,  # character offset past the token within the line
    ) -> None:
        self._set(kind, text, line, col, end)


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "comment":
            break
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), line_no, m.start() + 1, m.end()))
        pos = m.end()
    return tokens


class _Cursor:
    """A token stream over one logical line."""

    def __init__(self, tokens: list[_Token], line_no: int, raw: str):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.raw = raw

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ModelSyntaxError("unexpected end of line", self.line, len(self.raw) + 1)
        self.pos += 1
        return tok

    def error(self, message: str) -> ModelSyntaxError:
        tok = self.peek()
        col = tok.col if tok else len(self.raw) + 1
        return ModelSyntaxError(message, self.line, col)

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            raise self.error(f"expected {what}")
        if tok.text in KEYWORDS:
            raise self.error(f"{tok.text!r} is a reserved word")
        return self.next()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text == text

    def at_name(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "name" and tok.text == text

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect_done(self) -> None:
        if not self.done():
            raise self.error("unexpected trailing input")

    def source_span(self, start_tok_index: int) -> str:
        toks = self.tokens[start_tok_index : self.pos]
        if not toks:
            return ""
        return self.raw[toks[0].col - 1 : toks[-1].end].strip()


# --- expression and constraint parsing ---------------------------------------

_EDGE_CLAUSES = ("on", "guard", "do", "emit")


def _parse_expr(cur: _Cursor, stop_names: tuple[str, ...] = ()) -> FlowRhs:
    start = cur.pos
    form = _parse_expr_sum(cur, stop_names)
    if isinstance(form, NonlinearExpr):
        return NonlinearExpr(cur.source_span(start))
    return form


def _at_expr_stop(cur: _Cursor, stop_names: tuple[str, ...]) -> bool:
    tok = cur.peek()
    if tok is None:
        return True
    if tok.kind == "name" and tok.text in stop_names:
        return True
    return False


def _parse_expr_sum(cur: _Cursor, stop: tuple[str, ...]) -> FlowRhs:
    start = cur.pos
    acc = _parse_expr_term(cur, stop)
    while not _at_expr_stop(cur, stop) and (cur.at_op("+") or cur.at_op("-")):
        op = cur.next().text
        rhs = _parse_expr_term(cur, stop)
        text = cur.source_span(start)
        acc = lin_add(acc, rhs, text) if op == "+" else lin_sub(acc, rhs, text)
    return acc


def _parse_expr_term(cur: _Cursor, stop: tuple[str, ...]) -> FlowRhs:
    start = cur.pos
    acc = _parse_expr_factor(cur, stop)
    while not _at_expr_stop(cur, stop) and (cur.at_op("*") or cur.at_op("/")):
        op = cur.next().text
        rhs = _parse_expr_factor(cur, stop)
        text = cur.source_span(start)
        try:
            acc = lin_mul(acc, rhs, text) if op == "*" else lin_div(acc, rhs, text)
        except ZeroDivisionError:
            raise ModelSyntaxError("division by zero", cur.line, cur.tokens[start].col)
    return acc


def _parse_expr_factor(cur: _Cursor, stop: tuple[str, ...]) -> FlowRhs:
    tok = cur.peek()
    if tok is None:
        raise cur.error("expected an expression")
    if tok.kind == "op" and tok.text == "-":
        start = cur.pos
        cur.next()
        inner = _parse_expr_factor(cur, stop)
        return lin_neg(inner, cur.source_span(start))
    if tok.kind == "op" and tok.text == "(":
        cur.next()
        inner = _parse_expr_sum(cur, stop)
        cur.expect_op(")")
        return inner
    if tok.kind == "number":
        cur.next()
        return LinearForm.constant(Fraction(tok.text))
    if tok.kind == "name":
        if tok.text in KEYWORDS:
            raise cur.error(f"{tok.text!r} is a reserved word")
        cur.next()
        return LinearForm.of_variable(tok.text)
    raise cur.error("expected an expression")


def _parse_const_expr(cur: _Cursor, what: str, stop: tuple[str, ...] = ()) -> Rational:
    form = _parse_expr(cur, stop)
    if isinstance(form, NonlinearExpr) or form.coeffs:
        raise cur.error(f"{what} must be a constant")
    return form.const


_RELOPS = ("<", "<=", ">", ">=", "==")
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def _parse_constraint(cur: _Cursor, stop: tuple[str, ...]) -> Constraint:
    conjuncts = [_parse_comparison(cur, stop)]
    while not _at_expr_stop(cur, stop) and (cur.at_op("&&") or cur.at_op("||")):
        if cur.at_op("||"):
            raise cur.error("disjunction is not supported in constraints")
        cur.next()
        conjuncts.append(_parse_comparison(cur, stop))
    return Constraint(tuple(conjuncts))


def _parse_comparison(cur: _Cursor, stop: tuple[str, ...]) -> Comparison:
    lhs = _parse_expr_sum(cur, stop)
    tok = cur.peek()
    if tok is None or tok.kind != "op" or tok.text not in _RELOPS:
        if tok is not None and tok.kind == "op" and tok.text == "=":
            raise cur.error("use '==' for equality")
        raise cur.error("expected a comparison operator")
    op = cur.next().text
    rhs = _parse_expr_sum(cur, stop)
    return _make_comparison(lhs, op, rhs, cur)


def _make_comparison(lhs: FlowRhs, op: str, rhs: FlowRhs, cur: _Cursor) -> Comparison:
    def bare_var(form: FlowRhs) -> str | None:
        if isinstance(form, LinearForm) and form.const == 0 and len(form.coeffs) == 1:
            (v, c), = form.coeffs
            if c == 1:
                return v
        return None

    def const_of(form: FlowRhs) -> Rational | None:
        if isinstance(form, LinearForm) and not form.coeffs:
            return form.const
        return None

    lv, rv = bare_var(lhs), bare_var(rhs)
    lc, rc = const_of(lhs), const_of(rhs)
    if lv is not None and rc is not None:
        return Comparison(lv, op, rc)
    if lc is not None and rv is not None:
        return Comparison(rv, _FLIPPED[op], lc)
    raise cur.error("comparisons must relate one variable to one constant")


def _parse_event_expr(cur: _Cursor, stop: tuple[str, ...]) -> EventExpr:
    present: dict[str, None] = {}
    absent: dict[str, None] = {}
    while True:
        if cur.at_op("!"):
            cur.next()
            absent.setdefault(cur.expect_name("an event name").text, None)
        else:
            present.setdefault(cur.expect_name("an event name").text, None)
        if not _at_expr_stop(cur, stop) and cur.at_op("&&"):
            cur.next()
            continue
        break
    return EventExpr(tuple(present), tuple(absent))


def _parse_interval(cur: _Cursor) -> Interval:
    if cur.at_op("["):
        lo_closed = True
    elif cur.at_op("("):
        lo_closed = False
    else:
        raise cur.error("expected '[' or '(' to open an interval")
    cur.next()
    lo = _parse_endpoint(cur, low=True)
    cur.expect_op(",")
    hi = _parse_endpoint(cur, low=False)
    if cur.at_op("]"):
        hi_closed = True
    elif cur.at_op(")"):
        hi_closed = False
    else:
        raise cur.error("expected ']' or ')' to close an interval")
    cur.next()
    return Interval(lo, hi, lo_closed, hi_closed)


def _parse_endpoint(cur: _Cursor, low: bool):
    neg = False
    if cur.at_op("-"):
        cur.next()
        neg = True
    if cur.at_name("inf"):
        cur.next()
        return NEG_INF if neg else POS_INF
    tok = cur.peek()
    if tok is None or tok.kind != "number":
        raise cur.error("expected a number or inf")
    cur.next()
    val = Fraction(tok.text)
    if cur.at_op("/"):
        cur.next()
        den_tok = cur.peek()
        if den_tok is None or den_tok.kind != "number":
            raise cur.error("expected a denominator")
        cur.next()
        val = val / Fraction(den_tok.text)
    return -val if neg else val


# --- model file parser --------------------------------------------------------


class _AutomatonBuilder:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.variables: list[str] = []
        self.init_values: list[tuple[str, Rational]] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.locations: list[dict] = []
        self.edges: list[Edge] = []
        self.initial: str | None = None
        self.current_loc: dict | None = None

    def finish(self) -> HybridAutomaton:
        locations = []
        for raw in self.locations:
            init = tuple(self.init_values) if raw["name"] == self.initial else None
            locations.append(
                Location(
                    name=raw["name"],
                    invariant=raw["invariant"],
                    flows=tuple(raw["flows"]),
                    boundary=tuple(raw["boundary"]),
                    init=init,
                    line=raw["line"],
                )
            )
        return HybridAutomaton(
            name=self.name,
            variables=tuple(self.variables),
            init_values=tuple(self.init_values),
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            locations=tuple(locations),
            edges=tuple(self.edges),
            initial_location=self.initial or "",
            line=self.line,
        )


def parse_model(text: str, source: str = "<model>") -> Network:
    """Parse and fully validate a model document.

    Raises ModelSyntaxError with line and column on malformed input, and
    ModelSemanticsError carrying diagnostics when names do not resolve or
    network-level single-writer rules are violated.
    """
    network_name: str | None = None
    builders: list[_AutomatonBuilder] = []
    cur_auto: _AutomatonBuilder | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no, raw)
        head = cur.peek()
        if head.kind != "name":
            raise cur.error("expected a declaration keyword")

        if head.text == "network":
            cur.next()
            if network_name is not None:
                raise cur.error("duplicate network declaration")
            network_name = cur.expect_name("a network name").text
            cur.expect_done()
            continue

        if network_name is None:
            raise cur.error("the file must start with a network declaration")

        if head.text == "automaton":
            cur.next()
            name = cur.expect_name("an automaton name").text
            cur.expect_done()
            cur_auto = _AutomatonBuilder(name, line_no)
            builders.append(cur_auto)
            continue

        if cur_auto is None:
            raise cur.error("declaration outside of an automaton")

        if head.text == "var":
            cur.next()
            name = cur.expect_name("a variable name").text
            if not cur.at_name("init"):
                raise cur.error("expected 'init'")
            cur.next()
            value = _parse_const_expr(cur, "an initial value")
            cur.expect_done()
            cur_auto.variables.append(name)
            cur_auto.init_values.append((name, value))
            continue

        if head.text in ("input", "output"):
            cur.next()
            names = []
            while not cur.done():
                names.append(cur.expect_name("an event name").text)
            if not names:
                raise cur.error("expected at least one event name")
            (cur_auto.inputs if head.text == "input" else cur_auto.outputs).extend(names)
            continue

        if head.text in ("initial", "location"):
            is_initial = head.text == "initial"
            cur.next()
            if is_initial:
                if not cur.at_name("location"):
                    raise cur.error("expected 'location'")
                cur.next()
            name = cur.expect_name("a location name").text
            cur.expect_done()
            loc = {
                "name": name,
                "invariant": Constraint.true(),
                "flows": [],
                "boundary": [],
                "line": line_no,
            }
            cur_auto.locations.append(loc)
            cur_auto.current_loc = loc
            if is_initial:
                if cur_auto.initial is not None:
                    raise ModelSyntaxError(
                        f"automaton {cur_auto.name} already has an initial location",
                        line_no,
                        head.col,
                    )
                cur_auto.initial = name
            continue

        if head.text in ("invariant", "flow", "boundary"):
            if cur_auto.current_loc is None:
                raise cur.error(f"'{head.text}' outside of a location")
            loc = cur_auto.current_loc
            if head.text == "invariant":
                cur.next()
                loc["invariant"] = loc["invariant"].conjoin(_parse_constraint(cur, ()))
                cur.expect_done()
            elif head.text == "flow":
                cur.next()
                var = cur.expect_name("a variable name").text
                cur.expect_op("'")
                cur.expect_op("=")
                rhs = _parse_expr(cur)
                cur.expect_done()
                loc["flows"].append(Flow(var, rhs, line_no))
            else:
                cur.next()
                var = cur.expect_name("a variable name").text
                if not cur.at_name("in"):
                    raise cur.error("expected 'in'")
                cur.next()
                iv = _parse_interval(cur)
                cur.expect_done()
                loc["boundary"].append((var, iv))
            continue

        if head.text == "edge":
            cur.next()
            src = cur.expect_name("a source location").text
            cur.expect_op("->")
            dst = cur.expect_name("a destination location").text
            event = EventExpr()
            guard = Constraint.true()
            updates: list[tuple[str, AffineExpr]] = []
            emits: list[str] = []
            seen: set[str] = set()
            while not cur.done():
                tok = cur.peek()
                if tok.kind != "name" or tok.text not in _EDGE_CLAUSES:
                    raise cur.error("expected 'on', 'guard', 'do' or 'emit'")
                clause = tok.text
                if clause in seen:
                    raise cur.error(f"duplicate '{clause}' clause")
                seen.add(clause)
                cur.next()
                if clause == "on":
                    event = _parse_event_expr(cur, _EDGE_CLAUSES)
                elif clause == "guard":
                    guard = _parse_constraint(cur, _EDGE_CLAUSES)
                elif clause == "do":
                    updates.extend(_parse_updates(cur))
                else:
                    while not cur.done() and not (
                        cur.peek().kind == "name" and cur.peek().text in _EDGE_CLAUSES
                    ):
                        emits.append(cur.expect_name("an event name").text)
                    if not emits:
                        raise cur.error("expected at least one event name")
            cur_auto.edges.append(
                Edge(src, dst, event, guard, tuple(updates), tuple(emits), line_no)
            )
            continue

        raise cur.error(f"unknown declaration {head.text!r}")

    if network_name is None:
        raise ModelSyntaxError("empty model: expected a network declaration", 1, 1)

    network = Network(network_name, tuple(b.finish() for b in builders))
    diagnostics = validate_references(network)
    if diagnostics:
        raise ModelSemanticsError(diagnostics)
    return network


def _parse_updates(cur: _Cursor) -> list[tuple[str, AffineExpr]]:
    updates = []
    while True:
        var = cur.expect_name("a variable name").text
        cur.expect_op("'")
        cur.expect_op(":=")
        start = cur.pos
        form = _parse_expr(cur, _EDGE_CLAUSES)
        if isinstance(form, NonlinearExpr):
            raise ModelSyntaxError(
                f"update for {var} must be affine", cur.line, cur.tokens[start].col
            )
        try:
            affine = form.as_affine(var)
        except ValueError as exc:
            raise ModelSyntaxError(str(exc), cur.line, cur.tokens[start].col)
        updates.append((var, affine))
        if cur.at_op(","):
            cur.next()
            continue
        break
    return updates


def load_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), source=str(path))


# --- validation ---------------------------------------------------------------


def validate_references(network: Network) -> list[Diagnostic]:
    """All name-resolution and single-writer diagnostics, ordered by source line."""
    diags: list[Diagnostic] = []
    all_vars: dict[str, str] = {}  # variable -> owning automaton
    all_events: dict[str, None] = {}
    emitters: dict[str, str] = {}

    seen_autos: set[str] = set()
    for auto in network.automata:
        if auto.name in seen_autos:
            diags.append(
                Diagnostic(
                    "DUPLICATE_AUTOMATON",
                    f"automaton {auto.name} is declared more than once",
                    auto.line,
                )
            )
        seen_autos.add(auto.name)
        for ev in list(auto.inputs) + list(auto.outputs):
            all_events.setdefault(ev, None)
        for v in auto.variables:
            if v in all_vars and all_vars[v] != auto.name:
                diags.append(
                    Diagnostic(
                        "SHARED_WRITE_CONFLICT",
                        f"variable {v} is declared by both {all_vars[v]} and {auto.name}; "
                        "only one automaton may own it",
                        auto.line,
                    )
                )
            else:
                all_vars[v] = auto.name

    for auto in network.automata:
        diags.extend(_validate_automaton(auto, network, all_vars, all_events))
        for e in auto.edges:
            for ev in e.emits:
                owner = emitters.get(ev)
                if owner is not None and owner != auto.name:
                    diags.append(
                        Diagnostic(
                            "SHARED_WRITE_CONFLICT",
                            f"event {ev} is emitted by both {owner} and {auto.name}",
                            e.line,
                        )
                    )
                else:
                    emitters[ev] = auto.name

    # Two automata declaring the same output event is a write conflict even
    # if neither ever emits it.
    seen_outputs: dict[str, str] = {}
    for auto in network.automata:
        for ev in auto.outputs:
            owner = seen_outputs.get(ev)
            if owner is not None and owner != auto.name:
                diags.append(
                    Diagnostic(
                        "SHARED_WRITE_CONFLICT",
                        f"output event {ev} is declared by both {owner} and {auto.name}",
                        auto.line,
                    )
                )
            else:
                seen_outputs[ev] = auto.name

    diags.sort(key=lambda d: d.line)
    return diags


def _validate_automaton(
    auto: HybridAutomaton,
    network: Network,
    all_vars: dict[str, str],
    all_events: dict[str, None],
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    local_vars = set(auto.variables)
    local_events = set(auto.inputs) | set(auto.outputs)
    loc_names = set()

    seen_vars: set[str] = set()
    for v in auto.variables:
        if v in seen_vars:
            diags.append(
                Diagnostic(
                    "DUPLICATE_VARIABLE",
                    f"variable {v} is declared twice in {auto.name}",
                    auto.line,
                )
            )
        seen_vars.add(v)

    inits = dict(auto.init_values)
    for v in auto.variables:
        if v not in inits:
            diags.append(
                Diagnostic(
                    "MISSING_INIT",
                    f"variable {v} of {auto.name} has no initial value",
                    auto.line,
                )
            )

    def check_var(name: str, line: int, context: str, must_be_local: bool = False):
        if must_be_local:
            if name not in local_vars:
                diags.append(
                    Diagnostic(
                        "UNKNOWN_VARIABLE",
                        f"{context} refers to {name}, which {auto.name} does not declare",
                        line,
                    )
                )
        elif name not in all_vars:
            diags.append(
                Diagnostic(
                    "UNKNOWN_VARIABLE",
                    f"{context} refers to undeclared variable {name}",
                    line,
                )
            )

    def check_event(name: str, line: int, context: str):
        if name not in local_events:
            diags.append(
                Diagnostic(
                    "UNKNOWN_EVENT",
                    f"{context} refers to event {name}, which {auto.name} does not declare",
                    line,
                )
            )

    for loc in auto.locations:
        if loc.name in loc_names:
            diags.append(
                Diagnostic(
                    "DUPLICATE_LOCATION",
                    f"location {loc.name} is declared twice in {auto.name}",
                    loc.line,
                )
            )
        loc_names.add(loc.name)
        for c in loc.invariant.conjuncts:
            check_var(c.variable, loc.line, f"invariant of {loc.name}")
        flowed: set[str] = set()
        for f in loc.flows:
            check_var(f.variable, f.line, f"flow in {loc.name}", must_be_local=True)
            if f.variable in flowed:
                diags.append(
                    Diagnostic(
                        "DUPLICATE_FLOW",
                        f"location {loc.name} has two flows for {f.variable}",
                        f.line,
                    )
                )
            flowed.add(f.variable)
            if isinstance(f.rhs, LinearForm):
                for v in f.rhs.variables():
                    check_var(v, f.line, f"flow of {f.variable} in {loc.name}")
        for v, _ in loc.boundary:
            check_var(v, loc.line, f"boundary in {loc.name}", must_be_local=True)

    if not auto.initial_location:
        diags.append(
            Diagnostic(
                "NO_INITIAL_LOCATION",
                f"automaton {auto.name} declares no initial location",
                auto.line,
            )
        )
    elif auto.initial_location not in loc_names:
        diags.append(
            Diagnostic(
                "UNKNOWN_LOCATION",
                f"initial location {auto.initial_location} is not declared",
                auto.line,
            )
        )

    for e in auto.edges:
        for endpoint in (e.src, e.dst):
            if endpoint not in loc_names:
                diags.append(
                    Diagnostic(
                        "UNKNOWN_LOCATION",
                        f"edge refers to unknown location {endpoint}",
                        e.line,
                    )
                )
        for ev in list(e.event.present) + list(e.event.absent):
            check_event(ev, e.line, "edge trigger")
        for c in e.guard.conjuncts:
            check_var(c.variable, e.line, "edge guard")
        for var, rhs in e.updates:
            check_var(var, e.line, "edge update target", must_be_local=True)
            if rhs.a != 0:
                check_var(rhs.variable, e.line, "edge update")
        for ev in e.emits:
            if ev not in local_events:
                check_event(ev, e.line, "emit")
            elif ev not in auto.outputs:
                diags.append(
                    Diagnostic(
                        "EMIT_NOT_OUTPUT",
                        f"{auto.name} emits {ev}, which is not one of its outputs",
                        e.line,
                    )
                )

    return diags


# --- serializer ---------------------------------------------------------------


def format_affine(expr: AffineExpr) -> str:
    return str(LinearForm(((expr.variable, expr.a),), expr.b))


def _format_interval_literal(iv: Interval) -> str:
    lb = "[" if iv.lo_closed else "("
    rb = "]" if iv.hi_closed else ")"
    lo = "-inf" if isinstance(iv.lo, float) else format_number(iv.lo)
    hi = "inf" if isinstance(iv.hi, float) else format_number(iv.hi)
    return f"{lb}{lo}, {hi}{rb}"


def format_network(network: Network) -> str:
    """Render a network back into the model format (parse round-trips)."""
    out: list[str] = [f"network {network.name}", ""]
    for auto in network.automata:
        out.append(f"automaton {auto.name}")
        inits = dict(auto.init_values)
        for v in auto.variables:
            out.append(f"  var {v} init {format_number(inits[v])}")
        if auto.inputs:
            out.append(f"  input {' '.join(auto.inputs)}")
        if auto.outputs:
            out.append(f"  output {' '.join(auto.outputs)}")
        for loc in auto.locations:
            prefix = "initial location" if loc.name == auto.initial_location else "location"
            out.append(f"  {prefix} {loc.name}")
            if loc.invariant.conjuncts:
                out.append(f"    invariant {loc.invariant}")
            for f in loc.flows:
                out.append(f"    flow {f.variable}' = {f.rhs}")
            for v, iv in loc.boundary:
                out.append(f"    boundary {v} in {_format_interval_literal(iv)}")
        for e in auto.edges:
            line = f"  edge {e.src} -> {e.dst}"
            if not e.event.is_trivial():
                line += f" on {e.event}"
            if e.guard.conjuncts:
                line += f" guard {e.guard}"
            if e.updates:
                ups = ", ".join(f"{v}' := {format_affine(rhs)}" for v, rhs in e.updates)
                line += f" do {ups}"
            if e.emits:
                line += f" emit {' '.join(e.emits)}"
            out.append(line)
        out.append("")
    return "\n".join(out)
