"""C code generation for executable automata.

Each automaton becomes two translation units:

* ``<name>.c`` holds the state globals, one witness function per
  location of each part and variable, and the reaction function that
  advances a single tick, printed part by part from `swa.switch_plan`:
  each part's evolve test and witness step, then its switch code,
* ``<name>_main.c`` holds a driver that loads an optional stimulus
  table, calls the reaction in a loop and prints the same trace format
  as the Python engines.

Every arithmetic expression is emitted with exactly the operation shape
the interpreter uses (same association, same special cases), so the C
binary and the Python engines compute identical doubles and identical
``%.15g`` trace rows on the same libm.  Guards, updates and entry
constants are printed by the same functions as the Python runner's.

The reaction takes and returns the product state as its mixed-radix
index over the parts' locations; neither unit has code per product
state.  The driver appends each row to one buffer and writes it with
one ``fwrite`` once it holds more than 64 KB, before a stuck report and
at the end of the run.  The tick and the time field come from an
integer writer (the time field is integer arithmetic on the tick index
when `swa.decimal_delta` gives the tick length as a short decimal).  The
location field is each part's location name, copied from one table per
part at the same index digit the reaction reads.  Each variable goes
through ``put_g``: a direct-mapped cache of 16,384 slots per variable,
``<var>_g``, keyed on the bits of the double (so 0 and -0 stay apart).
A miss formats the value with ``%.15g`` into its slot, so a value the
trace repeats, such as one a state holds constant or one a periodic
orbit comes back to, is formatted once while it keeps its slot.
"""

from __future__ import annotations

import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

from .expr import Constraint, Rational, format_number
from .odesolve import WitnessFunction, WitnessKind, resolve_c1
from .swa import (
    LocationPlan,
    Swa,
    affine_text,
    c1_text,
    constraint_text,
    decimal_delta,
    switch_plan,
)

_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary""".split()
)

# Everything the templates themselves use, so model names never shadow it.
_RESERVED = _C_KEYWORDS | frozenset(
    """main exp fabs printf fprintf snprintf fputs fwrite fopen fclose fgets
    memcpy strtol strtod strcmp strncmp strcpy strlen strchr strspn strcspn
    qsort atol atoi exit malloc realloc free size_t stdin stdout stderr errno
    d k cstate stuck t si ticks argc argv mask stim stim_n stim_cap stim_path
    load_stimulus by_tick slot buf o flush put put_s put_l put_g put_e INFINITY
    NAN""".split()
)


class _Names:
    """Injective mapping from model identifiers to free C identifiers."""

    def __init__(self) -> None:
        self.used: set[str] = set(_RESERVED)
        self.map: dict[tuple[str, str], str] = {}

    def claim(self, kind: str, original: str, derived) -> str:
        name = original
        while any(x in self.used for x in derived(name)):
            name += "_"
        self.used.update(derived(name))
        self.map[(kind, original)] = name
        return name

    def of(self, kind: str, original: str) -> str:
        return self.map[(kind, original)]


def c_num(q: Rational) -> str:
    """Exact C literal for a rational: short decimals stay readable, the
    rest round-trips through the float that the interpreter uses."""
    text = format_number(q)
    if "/" in text or len(text) > 24:
        return repr(float(q))
    return text


def c_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot emit {x!r} as a C constant")
    return repr(x)


def _c_constraint(c: Constraint, name_of) -> str:
    return constraint_text(c, name_of, c_num, " && ", "1")


def _c_witness_body(w: WitnessFunction) -> str:
    if w.kind is WitnessKind.CONSTANT:
        return "return C1;"
    if w.kind is WitnessKind.LINEAR:
        return f"return C1 + {c_num(w.b)}*d*k;"
    if w.x_eq_f == 0.0:
        return f"return C1*exp({c_num(w.a)}*d*k);"
    return f"return {c_num(w.x_eq)} + C1*exp({c_num(w.a)}*d*k);"


@dataclass(frozen=True)
class CodegenOptions:
    ticks: int = 10000  # driver default, argv[1] overrides
    stimulus_path: str | None = None  # baked stimulus file, argv[2] overrides


@dataclass(frozen=True)
class CUnit:
    """The two generated translation units for one automaton."""

    name: str  # sanitized base name: <name>.c plus <name>_main.c
    automaton_source: str
    driver_source: str
    reaction_symbol: str

    def file_names(self) -> tuple[str, str]:
        return (f"{self.name}.c", f"{self.name}_main.c")


def emit_c(swa: Swa, options: CodegenOptions | None = None) -> CUnit:
    options = options or CodegenOptions()
    if len(swa.events()) > 64:
        raise ValueError(
            f"automaton {swa.name!r} has {len(swa.events())} events, more than the C "
            "driver's limit of 64 (it packs events into a 64-bit stimulus mask)"
        )
    names = _Names()
    auto = names.claim("auto", swa.name, lambda n: {n, f"{n}R"})
    var_index = {v: i + 1 for i, v in enumerate(swa.variables)}
    for p, part in enumerate(swa.parts or (swa,)):
        for s in part.states:
            names.claim(
                f"loc{p}", s.name, lambda n: {f"{n}_ode_{var_index[v]}" for v in part.variables}
            )
    for v in swa.variables:
        names.claim("var", v, lambda n: {n, f"{n}_u", f"C1_{n}", f"{n}_g"})
    for e in swa.events():
        names.claim("event", e, lambda n: {n, f"{n}_out"})
    for p in range(len(swa.parts or (swa,))):
        names.claim("table", f"loc{p}", lambda n: {n})

    reaction = f"{auto}R"
    automaton_source = _emit_automaton(swa, names, reaction, var_index)
    driver_source = _emit_driver(swa, names, reaction, options)
    return CUnit(auto, automaton_source, driver_source, reaction)


def _digits(swa: Swa) -> list[str]:
    """Each part's location index, as C reads it from the product index ``cstate``."""
    plan = switch_plan(swa)
    return [("cstate" if stride == 1 else f"cstate / {stride}") + (f" % {len(locations)}" if p else "")
            for p, (locations, stride) in enumerate(zip(plan.parts, plan.strides))]


def _emit_automaton(swa: Swa, names: _Names, reaction: str, var_index: dict[str, int]) -> str:
    """Globals, one witness function per part location and variable, and the reaction.

    Everything is printed from the `switch_plan`, part by part, on the
    location index of each part, read from the mixed-radix product
    index that the reaction takes and returns.  The
    reaction evolves when every part's evolve test holds, one
    conditional expression per part; one `switch` per part then steps
    its witnesses.  Otherwise one `switch` per part runs its switch
    code, and the product index is recombined.
    """
    plan = switch_plan(swa)
    cv = lambda v: names.of("var", v)

    w: list[str] = []
    emit = w.append
    emit("#include <math.h>")
    emit("")
    emit(f"double d = {c_num(swa.delta)};")
    emit("long k = 0;")
    emit("int stuck = 0;")
    initial = dict(pair for loc in plan.at(plan.index[swa.initial_state]) for pair in loc.witnesses)
    for v, x0q in swa.init_values:
        x0 = float(x0q)
        emit(f"double {cv(v)} = {c_float(x0)};")
        emit(f"double {cv(v)}_u = {c_float(x0)};")
        emit(f"double C1_{cv(v)} = {c_float(resolve_c1(initial[v], x0))};")
    for e in swa.events():
        emit(f"int {names.of('event', e)} = 0;")
        emit(f"int {names.of('event', e)}_out = 0;")
    emit("")
    for p, locations in enumerate(plan.parts):
        for loc in locations:
            for v, wit in loc.witnesses:
                args = "double C1" if wit.kind is WitnessKind.CONSTANT else "double d, double k, double C1"
                emit(f"double {names.of(f'loc{p}', loc.name)}_ode_{var_index[v]}({args}) "
                     f"{{ {_c_witness_body(wit)} }}")
    emit("")

    def call(p: int, loc: LocationPlan, v: str, wit: WitnessFunction, k: str) -> str:
        args = f"C1_{cv(v)}" if wit.kind is WitnessKind.CONSTANT else f"d, {k}, C1_{cv(v)}"
        return f"{names.of(f'loc{p}', loc.name)}_ode_{var_index[v]}({args})"

    def test(*conds: str, present: int = 0, absent: int = 0) -> str:
        """The event tests, then `conds`, joined; "1" when there are none."""
        events = [("!" if absent >> i & 1 else "") + names.of("event", e)
                  for i, e in enumerate(plan.events) if (present | absent) >> i & 1]
        return " && ".join(events + [c for c in conds if c != "1"]) or "1"

    def choice(lv: str, exprs: list[str]) -> str:
        """``exprs[lv]`` as a chain of conditional expressions, or the one expression they all are."""
        if len(set(exprs)) == 1:
            return exprs[0]
        *first, last = exprs
        chain = "".join(f"{lv} == {d} ? {e} : " for d, e in enumerate(first))
        return f"({chain}{last})"

    def evolve_test(loc: LocationPlan) -> str:
        return test(_c_constraint(loc.invariant, cv), absent=loc.triggers)

    def fresh(base: str, taken: set[str]) -> str:
        while base in taken:
            base += "_"
        taken.add(base)
        return base

    def switch_code(p: int, loc: LocationPlan, lv: str) -> list[str]:
        """Part p's switch tick in `loc`; `lv` holds its location index."""
        taken = set(names.used)
        out: list[str] = []
        put = out.append
        prev = {}
        for v, wit in loc.prev:
            prev[v] = fresh(f"{cv(v)}_prev", taken)
            put(f"double {prev[v]} = (k >= 1) ? {call(p, loc, v, wit, 'k - 1')} : {cv(v)};")
        # snap candidates: the first failing non-strict bound, if crossed
        cands = []
        for i, e in enumerate(loc.edges):
            cands.append({})
            for v, comps in e.snaps:
                x, pv = cv(v), prev[v]
                cn = cands[-1][v] = fresh(f"{x}_c{i}", taken)
                put(f"double {cn} = {x};")
                for n, c in enumerate(comps):
                    b = c_num(c.bound)
                    put(f"{'else if' if n else 'if'} (!({x} {c.op} {b})) {{")
                    put(f"    if (({pv} <= {b} && {b} <= {x}) || ({x} <= {b} && {b} <= {pv})) {{")
                    put(f"        {cn} = {b};")
                    put("    }")
                    put("}")
        for i, (e, cand) in enumerate(zip(loc.edges, cands)):
            one = " + ".join(f"({cn} != {cv(v)})" for v, cn in cand.items())
            guard = _c_constraint(e.guard, lambda v: cand.get(v, cv(v)))
            cond = test(f"({one}) <= 1" if e.exclusive else "1", guard, present=e.present, absent=e.absent)
            put(f"{'else if' if i else 'if'} ({cond}) {{")
            for v, cn in cand.items():
                put(f"    {cv(v)} = {cn};")
            temps = [(v, fresh(f"{cv(v)}_t{j}", taken), x) for j, (v, x) in enumerate(e.updates)]
            for v, tn, x in temps:
                put(f"    double {tn} = {affine_text(x, cv, c_num)};")
            for v, tn, _ in temps:
                put(f"    {cv(v)} = {tn};")
            for v, wit in e.refresh:
                put(f"    C1_{cv(v)} = {c1_text(wit, cv(v), c_num)};")
            put(f"    {lv} = {e.dst};")
            for n, ev in enumerate(plan.events):
                if e.emits >> n & 1:
                    put(f"    {names.of('event', ev)}_out = 1;")
            put("}")
        # no enabled edge: frozen if the part can evolve, else stuck
        evolve = evolve_test(loc)
        frozen = [f"if (!({evolve})) {{", "    stuck = 1;", "    return cstate;", "}"] if evolve != "1" else []
        frozen += [f"C1_{cv(v)} = {c1_text(wit, cv(v), c_num)};" for v, wit in loc.witnesses]
        if loc.edges and frozen:
            return out + ["else {", *(f"    {line}" for line in frozen), "}"]
        return out + frozen

    emit(f"int {reaction}(int cstate) {{")
    for v in swa.variables:
        emit(f"    {cv(v)} = {cv(v)}_u;")
    # each part's location index, read once from the product index; its switch code sets the next one
    lvs = []
    for p, digit in enumerate(_digits(swa)):
        lvs.append(fresh(f"l{p}", names.used))
        emit(f"    int {lvs[p]} = {digit};")
    tests = [choice(lv, list(map(evolve_test, locations))) for lv, locations in zip(lvs, plan.parts)]
    evolve = "\n        && ".join(t for t in tests if t != "1") or "1"
    emit(f"    if ({evolve}) {{")
    emit("        k = k + 1;")
    for p, (lv, locations) in enumerate(zip(lvs, plan.parts)):
        steps = [" ".join(f"{cv(v)}_u = {call(p, loc, v, wit, 'k')};" for v, wit in loc.witnesses
                          if wit.kind is not WitnessKind.CONSTANT) for loc in locations]
        if any(steps):
            emit(f"        switch ({lv}) {{")
            w += [f"        case {d}: {step} break;" for d, step in enumerate(steps) if step]
            emit("        }")
    emit("        return cstate;")
    emit("    }")
    for p, (lv, locations) in enumerate(zip(lvs, plan.parts)):
        emit(f"    switch ({lv}) {{")
        for d, loc in enumerate(locations):
            emit(f"    case {d}: {{  /* {loc.name} */")
            w += [f"        {line}" for line in switch_code(p, loc, lv)]
            emit("        break;")
            emit("    }")
        emit("    }")
    for v in swa.variables:
        emit(f"    {cv(v)}_u = {cv(v)};")
    emit("    k = 0;")
    index = " + ".join(lv if st == 1 else f"{lv} * {st}" for lv, st in zip(lvs, plan.strides))
    emit(f"    return {index};")
    emit("}")
    return "\n".join(w) + "\n"


def _c_time_field(swa: Swa) -> list[str]:
    """Statements that write the time field of row t.

    With `decimal_delta` the field is integer arithmetic on t*m: the
    quotient by 10**j, then the remainder plus 10**j, whose leading 1
    becomes the point, with trailing zeros and a bare point stripped.
    """
    dec = decimal_delta(swa.delta)
    if dec is None:
        return [f'o += snprintf(o, 24, "%.15g", t * {c_float(swa.delta_f)});']
    m, j = dec
    scaled = "t" if m == 1 else f"t * {m}"
    if j == 0:
        return [f"put_l({scaled});"]
    return [
        f"put_l({scaled} / {10**j});",
        f"put_l({scaled} % {10**j} + {10**j});",
        f"o[-{j + 1}] = '.';",
        "while (o[-1] == '0') o--;",
        "if (o[-1] == '.') o--;",
    ]


def _emit_driver(swa: Swa, names: _Names, reaction: str, options: CodegenOptions) -> str:
    cv = lambda v: names.of("var", v)
    ce = lambda e: names.of("event", e)
    plan = switch_plan(swa)
    events = swa.events()
    # each part's location name, read from its own table
    locs = [f"{names.of('table', f'loc{p}')}[{digit}]" for p, digit in enumerate(_digits(swa))]
    # the longest row: a 19-digit tick and a time field of at most 23 characters,
    # the location, at most 22 characters per value, every event name, each field's
    # separator and the newline
    width = (48 + sum(max(len(loc.name) for loc in locations) for locations in plan.parts)
             + 24 * len(swa.variables) + sum(len(e) + 1 for e in (*swa.inputs, *swa.outputs)))

    w: list[str] = []
    emit = w.append
    emit("#include <stdio.h>")
    emit("#include <stdlib.h>")
    emit("#include <string.h>")
    emit("")
    emit(f"int {reaction}(int cstate);")
    emit("extern long k;")
    emit("extern int stuck;")
    for v in swa.variables:
        emit(f"extern double {cv(v)}, {cv(v)}_u;")
    for e in events:
        emit(f"extern int {ce(e)}, {ce(e)}_out;")
    emit("")
    for p, locations in enumerate(plan.parts):
        table = ", ".join(f'"{loc.name}"' for loc in locations)
        emit(f"static const char *{names.of('table', f'loc{p}')}[] = {{ {table} }};")
    emit("static struct { long t; unsigned long long m; } *stim;")
    emit("static long stim_n, stim_cap;")
    emit("")
    emit(f"static char buf[65536 + {width}], *o = buf;")
    emit("")
    emit("static void flush(void) {")
    emit("    fwrite(buf, 1, o - buf, stdout);")
    emit("    o = buf;")
    emit("}")
    emit("")
    emit("static void put(const char *s, size_t n) {")
    emit("    memcpy(o, s, n);")
    emit("    o += n;")
    emit("}")
    emit("")
    emit("static void put_s(const char *s) {")
    emit("    put(s, strlen(s));")
    emit("}")
    emit("")
    emit("static void put_l(long v) {")
    emit("    char s[20], *e = s + 20;")
    emit("    do *--e = '0' + v % 10; while (v /= 10);")
    emit("    put(e, s + 20 - e);")
    emit("}")
    emit("")
    if swa.variables:
        emit("/* one slot of a variable's text cache: the bits of a double and its %.15g */")
        emit("typedef struct { unsigned long long b; char n, s[23]; } slot;")
        emit(f"static slot {', '.join(f'{cv(v)}_g[16384]' for v in swa.variables)};")
        emit("")
        emit("static void put_g(double v, slot *c) {")
        emit("    unsigned long long b;")
        emit("    memcpy(&b, &v, sizeof b);")
        emit("    c += b * 0x9E3779B97F4A7C15ULL >> 50; /* 16384 slots */")
        emit("    if (!c->n || c->b != b) {")
        emit("        c->b = b;")
        emit('        c->n = snprintf(c->s, sizeof c->s, "%.15g", v);')
        emit("    }")
        emit("    *o++ = ',';")
        emit("    put(c->s, c->n);")
        emit("}")
        emit("")
    if swa.inputs or swa.outputs:
        emit("static void put_e(int on, const char *s) {")
        emit("    if (on) {")
        emit("        if (o[-1] != ',') *o++ = ';';")
        emit("        put_s(s);")
        emit("    }")
        emit("}")
        emit("")
    emit("static int by_tick(const void *a, const void *b) {")
    emit("    long x = *(const long *)a, y = *(const long *)b;")
    emit("    return (x > y) - (x < y);")
    emit("}")
    emit("")
    emit("static void load_stimulus(const char *path) {")
    emit('    FILE *fp = fopen(path, "r");')
    emit("    if (!fp) {")
    emit('        fprintf(stderr, "cannot open stimulus file %s\\n", path);')
    emit("        exit(2);")
    emit("    }")
    emit("    char line[8192];")
    emit("    for (int row = 1; fgets(line, sizeof line, fp); row++) {")
    emit('        char *p = line + strspn(line, " \\t"), *q;')
    emit('        if (strchr("#\\r\\n", *p)) continue;')
    emit("        long tick = strtol(p, &q, 10);")
    emit('        q += strspn(q, " \\t");')
    emit('        if (q == p || !strchr(",\\r\\n", *q)) {')
    emit("            if (row == 1) continue; /* header line */")
    emit('            fprintf(stderr, "%s:%d: expected a tick number\\n", path, row);')
    emit("            exit(2);")
    emit("        }")
    emit("        if (tick < 0) {")
    emit('            fprintf(stderr, "%s:%d: negative tick\\n", path, row);')
    emit("            exit(2);")
    emit("        }")
    emit("        unsigned long long m = 0;")
    emit('        for (p = q + (*q == \',\'); !strchr("\\r\\n", *p); p = q + (*q == \';\')) {')
    emit('            p += strspn(p, " \\t");')
    emit('            q = p + strcspn(p, ";\\r\\n");')
    emit("            long n = q - p;")
    emit('            while (n && strchr(" \\t", p[n - 1])) n--;')
    for idx, e in enumerate(events):
        emit(f'            if (n == {len(e)} && !strncmp(p, "{e}", {len(e)})) m |= {1 << idx}ULL;')
    emit("        }")
    emit("        if (stim_n == stim_cap) {")
    emit("            stim_cap = stim_cap ? stim_cap * 2 : 64;")
    emit("            stim = realloc(stim, stim_cap * sizeof *stim);")
    emit("            if (!stim) exit(2);")
    emit("        }")
    emit("        stim[stim_n].t = tick;")
    emit("        stim[stim_n++].m = m;")
    emit("    }")
    emit("    fclose(fp);")
    emit("    /* equal ticks merge during lookup */")
    emit("    if (stim_n) qsort(stim, stim_n, sizeof *stim, by_tick);")
    emit("}")
    emit("")
    emit("int main(int argc, char **argv) {")
    emit(f"    long ticks = {options.ticks};")
    if options.stimulus_path is not None:
        emit(f'    const char *stim_path = "{options.stimulus_path}";')
    else:
        emit("    const char *stim_path = 0;")
    emit("    if (argc > 1) ticks = atol(argv[1]);")
    emit("    if (argc > 2) stim_path = argv[2];")
    emit("    if (stim_path) load_stimulus(stim_path);")
    emit(f"    int cstate = {plan.index[swa.initial_state]};")
    emit("    long si = 0;")
    header = ",".join(["tick", "time", "location", *swa.variables, "inputs", "outputs"])
    emit(f'    fputs("{header}\\n", stdout);')
    emit("    for (long t = 0; t < ticks; t++) {")
    emit(f"        cstate = {reaction}(cstate);")
    emit("        if (stuck) {")
    emit("            flush();")
    emit(
        f'            fprintf(stderr, "stuck at tick %ld in state {"%s" * len(locs)}:'
        ' no evolution step and no enabled transition (k = %ld)\\n",'
        f" t, {', '.join(locs)}, k);"
    )
    for v in swa.variables:
        emit(f'            fprintf(stderr, "  {v} = %.17g\\n", {cv(v)}_u);')
    for e in events:
        emit(f'            if ({ce(e)}) fprintf(stderr, "  visible: {e}\\n");')
    emit("            exit(3);")
    emit("        }")
    emit("        put_l(t);")
    emit("        *o++ = ',';")
    for line in _c_time_field(swa):
        emit(f"        {line}")
    emit("        *o++ = ',';")
    for loc in locs:
        emit(f"        put_s({loc});")
    for v in swa.variables:
        emit(f"        put_g({cv(v)}, {cv(v)}_g);")
    for shown, flag in ((swa.inputs, ""), (swa.outputs, "_out")):
        emit("        *o++ = ',';")
        for e in shown:
            emit(f'        put_e({ce(e)}{flag}, "{e}");')
    emit("        *o++ = '\\n';")
    emit("        if (o - buf > 65536) flush();")
    emit("        unsigned long long mask = 0;")
    emit("        while (si < stim_n && stim[si].t <= t) mask |= stim[si++].m;")
    for idx, e in enumerate(events):
        emit(f"        {ce(e)} = ((mask >> {idx}) & 1) || {ce(e)}_out;")
        emit(f"        {ce(e)}_out = 0;")
    emit("    }")
    emit("    flush();")
    emit("    return 0;")
    emit("}")
    return "\n".join(w) + "\n"


def write_unit(unit: CUnit, directory) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    auto_name, main_name = unit.file_names()
    auto_path = directory / auto_name
    main_path = directory / main_name
    auto_path.write_text(unit.automaton_source, encoding="utf-8")
    main_path.write_text(unit.driver_source, encoding="utf-8")
    return auto_path, main_path


def find_cc() -> str | None:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def build_binary(unit: CUnit, directory, cc: str | None = None) -> Path | None:
    """Compile the unit in ``directory``; None when no C compiler exists."""
    cc = cc or find_cc()
    if cc is None:
        return None
    auto_path, main_path = write_unit(unit, directory)
    binary = Path(directory) / unit.name
    cmd = [cc, "-O2", str(auto_path), str(main_path), "-lm", "-o", str(binary)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"C compilation failed:\n{proc.stderr}")
    return binary
