"""Correctness checks made apart from syncha.

`check_trace` reads a CSV trace and holds it against a `NetSpec`:

* every row is the closed-form value of its segment: for x' = a*x + b
  entered at value e, the row j ticks into the segment holds
  x_eq + (e - x_eq) * exp(a*delta*j), or e + b*delta*j when a = 0;
* evolution rows satisfy their location's invariant, and no event that
  some automaton listens to is visible on them;
* a value-triggered switch falls on the first tick whose committed value
  has passed the guard bound, found with `math.log` from the entry value
  and the flow constants, and the switch row holds the bound exactly
  (or the constant a reset assigns);
* an event-triggered switch comes exactly one tick after the tick that
  emitted or supplied the event, and every event on a switch row was
  emitted by an edge that fired there;
* every supplied input is visible on the next tick and never otherwise.

`check_linear` replays networks whose flows are all clocks with an
exact-rational simulation of the tick rule and compares every row.
`product_size` gives the product's states and egress transitions from
the component counts alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from workloads import Comp, Edge, Loc, NetSpec

REL_TOL = 1e-9
NEAR_INT = 1e-6


def product_size(net: NetSpec) -> tuple[int, int]:
    """States prod |L_i| and egress sum over product states of prod(e_i + 1) - 1."""
    states, egress = 1, [1]
    for comp in net.comps:
        out = [sum(1 for e in comp.edges if e.src == l.name) for l in comp.locs]
        states *= len(comp.locs)
        egress = [p * (e + 1) for p in egress for e in out]
    return states, sum(p - 1 for p in egress)


def _holds(op: str, value, bound) -> bool:
    if op == "<=":
        return value <= bound
    if op == ">=":
        return value >= bound
    return value == bound


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


class _Flow:
    """Closed form of one variable's flow in one location."""

    def __init__(self, a: Fraction, b: Fraction, delta: Fraction):
        self.a, self.b = float(a), float(b)
        self.step = float(a * delta) if a else float(b * delta)
        self.x_eq = -self.b / self.a if a else None

    def at(self, e: float, j: int) -> float:
        if self.x_eq is None:
            return e + self.step * j
        return self.x_eq + (e - self.x_eq) * math.exp(self.step * j)

    def window(self, e: float, bound: float, op: str) -> tuple[float, float]:
        """Ticks (lo, hi) into the segment at which `value op bound` stops holding.

        hi is the first tick strictly past the bound; lo equals hi except
        when the bound is hit (nearly) exactly on a tick, where rounding
        may put the value on either side, or a guard `==` holds exactly.
        A value moving away from the bound never passes it.
        """
        slope = self.a * e + self.b
        if op == "==":
            op = "<=" if slope > 0 else ">=" if slope < 0 else ""
        if not ((op == "<=" and slope > 0) or (op == ">=" and slope < 0)):
            return math.inf, math.inf
        if self.x_eq is None:
            m = (bound - e) / self.step
        else:
            ratio = (bound - self.x_eq) / (e - self.x_eq)
            m = math.log(ratio) / self.step if ratio > 0 else -1.0
        if m < 0:
            return math.inf, math.inf
        r = round(m)
        if abs(m - r) <= NEAR_INT * max(1.0, m):
            return r, r + 1
        return math.floor(m) + 1, math.floor(m) + 1


class _Row:
    __slots__ = ("tick", "loc", "values", "ins", "outs")

    def __init__(self, line: str, nvars: int):
        f = line.rstrip("\n").split(",")
        if len(f) != nvars + 5:
            raise ValueError(f"row has {len(f)} fields, expected {nvars + 5}: {line!r}")
        self.tick = int(f[0])
        self.loc = f[2]
        self.values = [float(x) for x in f[3 : 3 + nvars]]
        self.ins = tuple(e for e in f[-2].split(";") if e)
        self.outs = tuple(e for e in f[-1].split(";") if e)


def read_rows(lines: Iterable[str], net: NetSpec) -> Iterator[_Row]:
    it = iter(lines)
    header = next(it, "").rstrip("\n").split(",")
    want = ["tick", "time", "location", *net.variables, "inputs", "outputs"]
    if header != want:
        raise ValueError(f"trace header {header} is not {want}")
    for line in it:
        yield _Row(line, len(net.variables))


def _decode(net: NetSpec, name: str, seen: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    if name in seen:
        return seen[name]
    out, rest = [], name
    for comp in net.comps:
        match = [l.name for l in comp.locs if rest.startswith(l.name)]
        if len(match) != 1:
            raise ValueError(f"location {name!r} does not decode into {comp.name}")
        out.append(match[0])
        rest = rest[len(match[0]) :]
    if rest:
        raise ValueError(f"location {name!r} has a stray suffix {rest!r}")
    seen[name] = tuple(out)
    return seen[name]


class TraceStats:
    def __init__(self) -> None:
        self.errors: list[str] = []
        self.switch_ticks = 0
        self.evolve_ticks = 0
        self.events_emitted = 0

    def fail(self, tick: int, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"tick {tick}: {msg}")


def check_trace(net: NetSpec, lines: Iterable[str]) -> TraceStats:
    delta = net.delta
    comps = net.comps
    flows = [
        {l.name: {v: _Flow(a, b, delta) for v, a, b in l.flows} for l in c.locs} for c in comps
    ]
    triggers = frozenset().union(*(c.triggers for c in comps))
    stim: dict[int, set[str]] = {}
    for t, e in net.stimulus:
        stim.setdefault(t, set()).add(e)
    stats = TraceStats()
    decoded: dict[str, tuple[str, ...]] = {}
    invariants = [{l.name: [(v, op, b, float(b)) for v, op, b in l.inv] for l in c.locs} for c in comps]

    locs = tuple(c.locs[0].name for c in comps)
    entry = [dict((v, float(x)) for v, x in c.init) for c in comps]
    start = -1
    vis_next: set[str] = set()
    t = -1
    for t, row in enumerate(read_rows(lines, net)):
        if row.tick != t:
            stats.fail(t, f"row numbered {row.tick}")
            break
        vis = vis_next
        supplied = stim.get(t - 1, set())
        want_ins = tuple(e for e in net.inputs if e in supplied)
        if row.ins != want_ins:
            stats.fail(t, f"inputs {row.ins}, expected {want_ins} supplied at tick {t - 1}")
        try:
            new = _decode(net, row.loc, decoded)
        except ValueError as exc:
            stats.fail(t, str(exc))
            break
        j = t - start - 1
        values = _split(row.values, comps)
        if new == locs:
            stats.evolve_ticks += 1
            if vis & triggers:
                stats.fail(t, f"evolved with {sorted(vis & triggers)} visible")
            if row.outs:
                stats.fail(t, f"evolution row emits {row.outs}")
            for ci in range(len(comps)):
                fl, vals, ent = flows[ci][locs[ci]], values[ci], entry[ci]
                for v, x in vals.items():
                    want = fl[v].at(ent[v], j)
                    if not _close(x, want):
                        stats.fail(t, f"{v} = {x!r}, closed form gives {want!r}")
                for v, op, bound, b in invariants[ci][locs[ci]]:
                    if not _holds(op, vals[v], b):
                        stats.fail(t, f"{v} = {vals[v]!r} breaks {v} {op} {bound} in {locs[ci]}")
        else:
            stats.switch_ticks += 1
            if not (vis & triggers or _forced(comps, locs, flows, entry, j)):
                stats.fail(t, "switch with no bound passed and no event visible")
            emitted: set[str] = set()
            for ci, comp in enumerate(comps):
                fl = flows[ci][locs[ci]]
                committed = {v: fl[v].at(entry[ci][v], j) for v in comp.variables}
                if new[ci] == locs[ci]:
                    _check_frozen(stats, t, j, comp, comp.loc(locs[ci]), fl, entry[ci], committed, values[ci], vis)
                    continue
                edge = _fired(stats, t, j, comp, locs[ci], new[ci], fl, entry[ci], committed, values[ci], vis)
                if edge is not None:
                    emitted.update(edge.emits)
            if set(row.outs) != emitted:
                stats.fail(t, f"emitted {sorted(row.outs)}, fired edges emit {sorted(emitted)}")
            stats.events_emitted += len(row.outs)
            locs, start = new, t
            entry = [dict(vals) for vals in values]
        vis_next = set(row.outs) | stim.get(t, set())
    if t + 1 != net.ticks:
        stats.fail(t, f"trace has {t + 1} rows, expected {net.ticks}")
    return stats


def _split(values: list[float], comps: tuple[Comp, ...]) -> list[dict[str, float]]:
    out, i = [], 0
    for comp in comps:
        n = len(comp.variables)
        out.append(dict(zip(comp.variables, values[i : i + n])))
        i += n
    return out


def _forced(comps, locs, flows, entry, j) -> bool:
    """Some automaton's committed value has passed its invariant at step j."""
    for ci, comp in enumerate(comps):
        for v, op, bound in comp.loc(locs[ci]).inv:
            fl = flows[ci][locs[ci]][v]
            lo, hi = fl.window(entry[ci][v], float(bound), op)
            if hi <= j or (lo <= j and not _holds(op, fl.at(entry[ci][v], j), float(bound))):
                return True
    return False


def _check_frozen(stats, t, j, comp, loc, fl, entry, committed, row_vals, vis) -> None:
    if vis & comp.triggers:
        stats.fail(t, f"{comp.name} stays in {loc.name} with {sorted(vis & comp.triggers)} visible")
    for v, op, bound in loc.inv:
        if fl[v].window(entry[v], float(bound), op)[1] <= j:
            stats.fail(t, f"{comp.name} passed {v} {op} {bound} in {loc.name} without switching")
    for v, x in row_vals.items():
        if not _close(x, committed[v]):
            stats.fail(t, f"frozen {v} = {x!r}, closed form gives {committed[v]!r}")


def _fired(stats, t, j, comp, src, dst, fl, entry, committed, row_vals, vis) -> Edge | None:
    """The edge src -> dst that explains the switch row, or None after a failure."""
    problems = []
    for edge in (e for e in comp.edges if e.src == src and e.dst == dst):
        why = _explain(edge, j, fl, entry, committed, row_vals, vis)
        if not why:
            return edge
        problems.append(why)
    stats.fail(t, f"{comp.name} {src} -> {dst}: " + ("; ".join(problems) or "no such edge"))
    return None


def _explain(edge, j, fl, entry, committed, row_vals, vis) -> str:
    missing = [e for e in edge.on if e not in vis]
    if missing:
        return f"{missing} not visible (not emitted or supplied on the tick before)"
    pre, exact = dict(committed), set()
    for v, op, bound in edge.guard:
        b = float(bound)
        lo, hi = fl[v].window(entry[v], b, op)
        holds = _close(committed[v], b) if op == "==" else _holds(op, committed[v], b)
        if lo <= j <= hi:
            pre[v] = b  # passed the bound on this tick (or sits on it): snaps
            exact.add(v)
        elif not holds:
            return f"guard {v} {op} {bound} neither holds nor was crossed on this tick ({j} ticks in, crossing at {hi})"
        elif op == "==":
            pre[v] = b
            exact.add(v)
    post = dict(pre)
    for v, scale, offset in edge.updates:
        post[v] = float(scale) * pre[v] + float(offset)
        if scale == 0:
            exact.add(v)
        else:
            exact.discard(v)
    for v, x in row_vals.items():
        ok = x == post[v] if v in exact else _close(x, post[v])
        if not ok:
            return f"{v} = {x!r} on the switch row, expected {post[v]!r}"
    return ""


# --- exact replay of clock networks ---------------------------------------------


def clock_network(net: NetSpec) -> bool:
    """Every flow is a clock that adds a whole number per tick."""
    return all(
        a == 0 and (b * net.delta).denominator == 1
        for c in net.comps
        for l in c.locs
        for _, a, b in l.flows
    )


def check_linear(net: NetSpec, lines: Iterable[str]) -> list[str]:
    """Replay a network whose flows are all x' = b in exact rationals.

    The tick rule: if every invariant holds at the committed values and
    no listened-to event is visible, every clock advances by b*delta.
    Otherwise every automaton with an enabled edge takes its first one
    (a guard bound crossed since the previous tick is snapped onto),
    every other automaton stays frozen, and the step count restarts.
    """
    if not clock_network(net):
        raise ValueError("check_linear needs clock flows that add whole numbers per tick")
    comps = tuple(_integral(c) for c in net.comps)
    rate = [{l.name: {v: _int(b * net.delta) for v, _, b in l.flows} for l in c.locs} for c in comps]
    triggers = frozenset().union(*(c.triggers for c in comps))
    stim: dict[int, set[str]] = {}
    for t, e in net.stimulus:
        stim.setdefault(t, set()).add(e)
    locs = [c.locs[0].name for c in comps]
    entry = [dict(c.init) for c in comps]
    decoded: dict[str, tuple[str, ...]] = {}
    k = 0
    pending: set[str] = set()
    errors: list[str] = []
    rows = read_rows(lines, net)
    for t in range(net.ticks):
        vis, pending = pending, set()
        committed = [{v: entry[i][v] + rate[i][locs[i]][v] * k for v in entry[i]} for i in range(len(comps))]
        inv_ok = [all(_holds(op, committed[i][v], b) for v, op, b in c.loc(locs[i]).inv) for i, c in enumerate(comps)]
        if all(inv_ok) and not vis & triggers:
            want_locs, want_vals, emitted = list(locs), committed, set()
            k += 1
        else:
            fired = [_first_enabled(c, locs[i], committed[i], rate[i][locs[i]], k, vis) for i, c in enumerate(comps)]
            if all(f is None for f in fired):
                errors.append(f"tick {t}: the replay is stuck")
                break
            emitted = set()
            want_locs, want_vals = list(locs), []
            for i, c in enumerate(comps):
                if fired[i] is None:
                    if not inv_ok[i] or vis & c.triggers:
                        errors.append(f"tick {t}: the replay is stuck in {c.name}")
                        return errors
                    want_vals.append(committed[i])
                    continue
                edge, post = fired[i]
                want_locs[i] = edge.dst
                want_vals.append(post)
                emitted.update(edge.emits)
            locs, entry, k = want_locs, want_vals, 0
        pending = emitted | stim.get(t, set())
        row = next(rows, None)
        if row is None:
            errors.append(f"tick {t}: trace ends early")
            break
        got = _decode(net, row.loc, decoded)
        vals = [float(x) for c_vals in want_vals for x in c_vals.values()]
        if list(got) != want_locs or row.values != vals or set(row.outs) != emitted:
            errors.append(
                f"tick {t}: trace has {row.loc} {row.values} {list(row.outs)}, "
                f"replay gives {''.join(want_locs)} {vals} {sorted(emitted)}"
            )
            if len(errors) >= 20:
                break
    if next(rows, None) is not None:
        errors.append("trace has more rows than ticks")
    return errors


def _int(q: Fraction):
    """Integers compare and add far faster as int than as Fraction."""
    return int(q) if q.denominator == 1 else q


def _integral(comp: Comp) -> Comp:
    conj = lambda items: tuple((v, op, _int(b)) for v, op, b in items)
    return Comp(
        comp.name,
        tuple((v, _int(x)) for v, x in comp.init),
        tuple(Loc(l.name, l.flows, conj(l.inv)) for l in comp.locs),
        tuple(
            Edge(e.src, e.dst, e.on, conj(e.guard),
                 tuple((v, _int(s), _int(o)) for v, s, o in e.updates), e.emits)
            for e in comp.edges
        ),
        comp.inputs,
        comp.outputs,
    )


def _first_enabled(comp: Comp, loc: str, committed, rate, k, vis):
    for edge in comp.edges:
        if edge.src != loc or any(e not in vis for e in edge.on):
            continue
        pre, snapped = dict(committed), 0
        ok = True
        for v, op, b in edge.guard:
            cur = committed[v]
            if _holds(op, cur, b):
                continue
            prev = cur - rate[v] if k >= 1 else cur
            if min(prev, cur) <= b <= max(prev, cur):
                pre[v] = b
                snapped += 1
            else:
                ok = False
        if not ok or snapped > 1:
            continue
        post = dict(pre)
        for v, scale, offset in edge.updates:
            post[v] = scale * pre[v] + offset
        return edge, post
    return None
