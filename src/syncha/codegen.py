"""C code generation for executable automata.

Each automaton becomes two translation units:

* ``<name>.c`` holds the state globals, among them one location index
  per part, and the reaction function that advances a single tick,
  printed part by part from `swa.switch_plan`: each part's evolve test
  and witness step, then its switch code,
* ``<name>_main.c`` holds a driver that loads an optional stimulus
  table, calls the reaction in a loop and prints the same trace format
  as the Python engines.

Every arithmetic expression is emitted with exactly the operation shape
the interpreter uses (same association, same special cases), so the C
binary and the Python engines compute identical doubles and identical
``%.15g`` trace rows on the same libm.  Witnesses, guards, updates and
entry constants are printed by the same functions as the Python runner's.

Each part's location index is a global ``int``, so neither unit has code
or data per product state, and a network of any number of product
states compiles.  The driver appends each row to one buffer and writes it with
one ``fwrite`` once it holds more than 64 KB, before a stuck report and
at the end of the run.  The tick and the time field come from an
integer writer (the time field is integer arithmetic on the tick index
when `swa.decimal_delta` gives the tick length as a short decimal).  The
location field is each part's location name, copied from one table per
part at the part's location index.  Each variable goes
through ``put_g``: a cache of 16,384 slots per variable, ``<var>_g``,
in 8,192 sets of two, keyed on the bits of the double (so 0 and -0
stay apart).  A set keeps its most recently used value first.  A miss
formats the value with ``%.15g`` into the set's first slot and moves
the first down, so a value the trace repeats, such as one a state
holds constant or one a periodic orbit comes back to, is formatted
once while it keeps its slot, even when another value shares its set.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

from .expr import Constraint, Rational, Record, format_number
from .odesolve import WitnessKind, resolve_c1
from .swa import (
    LocationPlan,
    Swa,
    affine_text,
    c1_text,
    constraint_text,
    decimal_delta,
    switch_plan,
    witness_text,
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
    k stuck t si ticks argc argv mask stim stim_n stim_cap stim_path
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


class CodegenOptions(Record):
    __slots__ = ("ticks", "stimulus_path")

    def __init__(
        self, ticks: int = 10000,  # driver default, argv[1] overrides
        stimulus_path: str | None = None,  # baked stimulus file, argv[2] overrides
    ) -> None:
        self._set(ticks, stimulus_path)


class CUnit(Record):
    """The two generated translation units for one automaton."""

    __slots__ = ("name", "automaton_source", "driver_source", "reaction_symbol")

    def __init__(
        self, name: str,  # sanitized base name: <name>.c plus <name>_main.c
        automaton_source: str, driver_source: str, reaction_symbol: str,
    ) -> None:
        self._set(name, automaton_source, driver_source, reaction_symbol)

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
    parts = range(len(swa.parts or (swa,)))
    for p in parts:  # part p's location index, and the next one while its switch code runs
        names.claim("part", f"l{p}", lambda n: {n, f"{n}_n"})
    for v in swa.variables:
        names.claim("var", v, lambda n: {n, f"{n}_u", f"C1_{n}", f"{n}_g"})
    for e in swa.events():
        names.claim("event", e, lambda n: {n, f"{n}_out"})
    for p in parts:
        names.claim("table", f"loc{p}", lambda n: {n})

    reaction = f"{auto}R"
    automaton_source = _emit_automaton(swa, names, reaction)
    driver_source = _emit_driver(swa, names, reaction, options)
    return CUnit(auto, automaton_source, driver_source, reaction)


def _emit_automaton(swa: Swa, names: _Names, reaction: str) -> str:
    """Globals and the reaction.

    Everything is printed from the `switch_plan`, part by part, on the
    global location index of each part.  The reaction evolves when every
    part's evolve test holds, one conditional expression per part; one
    `switch` per part then steps its witnesses.  Otherwise one `switch`
    per part runs its switch code, which sets the part's next location
    index; the indices move only once every part has decided, so a stuck
    report names the locations the tick started in.
    """
    plan = switch_plan(swa)
    cv = lambda v: names.of("var", v)
    lvs = [names.of("part", f"l{p}") for p in range(len(plan.parts))]
    start = [[loc.name for loc in locations].index(part.initial_state)
             for part, locations in zip(swa.parts or (swa,), plan.parts)]
    witness = lambda wit, v, k: witness_text(wit, f"C1_{cv(v)}", k, swa.delta_f, "exp")

    w: list[str] = []
    emit = w.append
    emit("#include <math.h>")
    emit("")
    emit("long k = 0;")
    emit("int stuck = 0;")
    for lv, d in zip(lvs, start):
        emit(f"int {lv} = {d};")
    initial = dict(pair for locations, d in zip(plan.parts, start) for pair in locations[d].witnesses)
    for v, x0q in swa.init_values:
        x0 = float(x0q)
        emit(f"double {cv(v)} = {c_float(x0)};")
        emit(f"double {cv(v)}_u = {c_float(x0)};")
        emit(f"double C1_{cv(v)} = {c_float(resolve_c1(initial[v], x0))};")
    for e in swa.events():
        emit(f"int {names.of('event', e)} = 0;")
        emit(f"int {names.of('event', e)}_out = 0;")
    emit("")

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

    def switch_code(loc: LocationPlan, next_lv: str) -> list[str]:
        """A part's switch tick in `loc`; `next_lv` receives its next location index."""
        taken = set(names.used)
        out: list[str] = []
        put = out.append
        prev = {}
        for v, wit in loc.prev:
            prev[v] = fresh(f"{cv(v)}_prev", taken)
            put(f"double {prev[v]} = (k >= 1) ? {witness(wit, v, '(k - 1)')} : {cv(v)};")
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
            put(f"    {next_lv} = {e.dst};")
            for n, ev in enumerate(plan.events):
                if e.emits >> n & 1:
                    put(f"    {names.of('event', ev)}_out = 1;")
            put("}")
        # no enabled edge: frozen if the part can evolve, else stuck
        evolve = evolve_test(loc)
        frozen = [f"if (!({evolve})) {{", "    stuck = 1;", "    return;", "}"] if evolve != "1" else []
        frozen += [f"C1_{cv(v)} = {c1_text(wit, cv(v), c_num)};" for v, wit in loc.witnesses]
        if loc.edges and frozen:
            return out + ["else {", *(f"    {line}" for line in frozen), "}"]
        return out + frozen

    emit(f"void {reaction}(void) {{")
    for v in swa.variables:
        emit(f"    {cv(v)} = {cv(v)}_u;")
    tests = [choice(lv, list(map(evolve_test, locations))) for lv, locations in zip(lvs, plan.parts)]
    evolve = "\n        && ".join(t for t in tests if t != "1") or "1"
    emit(f"    if ({evolve}) {{")
    emit("        k = k + 1;")
    for lv, locations in zip(lvs, plan.parts):
        steps = [" ".join(f"{cv(v)}_u = {witness(wit, v, 'k')};" for v, wit in loc.witnesses
                          if wit.kind is not WitnessKind.CONSTANT) for loc in locations]
        if any(steps):
            emit(f"        switch ({lv}) {{")
            w += [f"        case {d}: {step} break;" for d, step in enumerate(steps) if step]
            emit("        }")
    emit("        return;")
    emit("    }")
    for lv, locations in zip(lvs, plan.parts):
        emit(f"    int {lv}_n = {lv};")
        emit(f"    switch ({lv}) {{")
        for d, loc in enumerate(locations):
            emit(f"    case {d}: {{  /* {loc.name} */")
            w += [f"        {line}" for line in switch_code(loc, f"{lv}_n")]
            emit("        break;")
            emit("    }")
        emit("    }")
    for v in swa.variables:
        emit(f"    {cv(v)}_u = {cv(v)};")
    emit("    k = 0;")
    for lv in lvs:
        emit(f"    {lv} = {lv}_n;")
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
    lvs = [names.of("part", f"l{p}") for p in range(len(plan.parts))]
    locs = [f"{names.of('table', f'loc{p}')}[{lv}]" for p, lv in enumerate(lvs)]
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
    emit(f"void {reaction}(void);")
    emit("extern long k;")
    emit(f"extern int stuck, {', '.join(lvs)};")
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
        # a slot holds the bits of a double and its %.15g; a variable's
        # 16,384 slots are 8,192 sets of two, the most recently used first
        emit("typedef struct { unsigned long long b; char n, s[23]; } slot;")
        emit(f"static slot {', '.join(f'{cv(v)}_g[16384]' for v in swa.variables)};")
        emit("")
        emit("static void put_g(double v, slot *c) {")
        emit("    unsigned long long b;")
        emit("    memcpy(&b, &v, sizeof b);")
        emit("    c += b * 0x9E3779B97F4A7C15ULL >> 51 << 1;")
        emit("    if (!c->n || c->b != b) {")
        emit("        slot t = c[1];")
        emit("        c[1] = *c;")
        emit("        if (!t.n || t.b != b) {")
        emit("            t.b = b;")
        emit('            t.n = snprintf(t.s, sizeof t.s, "%.15g", v);')
        emit("        }")
        emit("        *c = t;")
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
    emit("            if (row == 1) continue;")  # a header line
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
    emit("    long si = 0;")
    header = ",".join(["tick", "time", "location", *swa.variables, "inputs", "outputs"])
    emit(f'    fputs("{header}\\n", stdout);')
    emit("    for (long t = 0; t < ticks; t++) {")
    emit(f"        {reaction}();")
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
