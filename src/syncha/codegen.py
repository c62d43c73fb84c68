"""C code generation for executable automata.

Each automaton becomes two C files, named after it:

* ``<name>.c`` holds the state globals, among them one location index
  per part, and the reaction function ``react_<name>`` that advances a
  single tick, printed part by part from `swa.switch_plan`: each part's
  evolve test and witness step, then its switch code and its re-entry,
* ``<name>_main.c`` holds a driver that loads an optional stimulus
  table, calls the reaction in a loop and prints the same trace format
  as the Python engines.

`build_binary` compiles the two as one translation unit, through a
third file that includes both (`write_whole`).

The reaction is printed by the one printer of the tick rule in `swa`,
which also prints the Python runner; only its `swa.Syntax` differs.
Every arithmetic expression therefore has exactly the operation shape
the interpreter uses (same association, same special cases), so the C
binary and the Python engines compute identical doubles and identical
``%.15g`` trace rows on the same libm.  Three spellings are C's own and
keep the reaction short: each snap candidate is one call of a static
``snap`` helper, each part's evolve test is computed once into a flag
``e<p>`` that its freeze check reuses, and a stuck part jumps to one
``stuck:`` label at the end of the reaction.  The events are the bits of two
``unsigned long long`` masks, as in the Python runner: ``vis`` holds
the events visible during the tick and ``emit`` those it emits, and
after each row the driver sets ``vis`` to the emitted events and the
stimulus, and clears ``emit``.  So a network has at most 64 events.
Every identifier a model name gives is `swa.ident`'s ``<role>_<name>``,
as in the Python runner (``v_x``, ``n_x``, ``c1_x``, ``g_x``, the
locals ``prev_x``, ``s<n>_x`` and ``t<n>_x``, and ``react_<name>``), and
every other identifier is the templates' own, so no model name can meet
a name of C, of the four headers or of the templates.

Each part's location index is a global ``int``, so neither unit has code
or data per product state, and a network of any number of product
states compiles.  The driver appends each row to one buffer and writes it with
one ``fwrite`` once it holds more than 64 KB, before a stuck report and
at the end of the run.  The tick is a decimal counter, 19 zero-padded
digits that gain 1 with a carry at the end of each row and are copied
at a fixed width from their first significant digit, so a row divides
nothing.  When `swa.decimal_delta` gives the tick length as 10**-j,
the time field is the tick's own digits, with a point moved in j
digits from the end (see `_c_time_field`); at any other delta it is
``fmt_g`` of t * delta, which writes the same bytes as the exact
decimal t * delta wherever that has at most 15 significant digits.  The
location field is each part's location name, copied from one table per
part at the part's location index.  Each variable goes
through ``put_g``: a cache of 16,384 slots per variable, ``g_<var>``,
in 4,096 sets of four, keyed on the bits of the double (so 0 and -0
stay apart).  A hit moves nothing.  A miss shifts its set down one
slot, dropping the fourth, and formats the value as ``%.15g`` into
the first, by ``fmt_g`` (see `_C_FORMAT`), which writes the digits of
values from 1 to 1e15 itself and leaves the others to ``snprintf``,
so a value the trace repeats, such as one a state holds
constant or one a periodic orbit comes back to, is formatted again only
after four other values of its set have been formatted.  A value's text is
copied at the fixed width of its slot, 23 bytes, and the row's 24 bytes
per value (with the comma) cover the copy.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

from .expr import Rational, Record, format_number
from .odesolve import resolve_c1
from .swa import Swa, Syntax, decimal_delta, evolve_tests, ident, indent, step_code, switch_code, switch_plan


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


def c_string(text: str) -> str:
    """`text` as a C string literal: its UTF-8 bytes, with quotes, backslashes and question marks
    escaped (no trigraph can form) and every byte outside printable ASCII as an octal escape."""
    out = []
    for byte in text.encode("utf-8", "surrogateescape"):
        char = chr(byte)
        out.append("\\" + char if char in '"\\?' else char if 32 <= byte < 127 else f"\\{byte:03o}")
    return '"' + "".join(out) + '"'


class CodegenOptions(Record):
    __slots__ = ("ticks", "stimulus_path")

    def __init__(
        self, ticks: int = 10000,  # driver default, argv[1] overrides
        stimulus_path: str | None = None,  # baked stimulus file, argv[2] overrides
    ) -> None:
        self._set(ticks, stimulus_path)


class CUnit(Record):
    """The two generated C files for one automaton."""

    __slots__ = ("name", "automaton_source", "driver_source")

    def __init__(self, name: str, automaton_source: str, driver_source: str) -> None:  # <name>.c, <name>_main.c
        self._set(name, automaton_source, driver_source)

    def file_names(self) -> tuple[str, str]:
        return (f"{self.name}.c", f"{self.name}_main.c")


def emit_c(swa: Swa, options: CodegenOptions | None = None) -> CUnit:
    options = options or CodegenOptions()
    if len(swa.events()) > 64:
        raise ValueError(
            f"automaton {swa.name!r} has {len(swa.events())} events, more than the C "
            "driver's limit of 64 (it packs events into a 64-bit stimulus mask)"
        )
    reaction = ident("react", swa.name)
    return CUnit(swa.name, _emit_automaton(swa, reaction), _emit_driver(swa, reaction, options))


def _c_block(n: int, cond: str, body: list[str]) -> list[str]:
    return [f"{'else if' if n else 'if'} ({cond}) {{", *indent(body), "}"]


def _c_dispatch(p: int, cases: list[tuple[int, str, list[str]]]) -> list[str]:
    return [f"switch (l{p}) {{", *(line for d, name, body in cases for line in (
        f"case {d}: {{  /* {name} */", *indent(body), "    break;", "}")), "}"]


# The C reaction's spelling.  Part p's evolve test is computed once into the flag ``e<p>``, which the
# freeze check reuses: a part's test reads only its own variables and ``vis``, which no other part's
# switch code writes, and it is read only where no edge of its own was taken.
C = Syntax(" && ", " || ", "!", "1", "{test} ? {a} : ", _c_block, ";", "double ", c_num, _c_dispatch,
           "l{}_n", lambda p, _, n: [f"{'else ' * (n > 0)}if (!e{p}) goto stuck;"],
           "double {c} = snap({x}, {was}, {b}, {holds});")

# A snap candidate: x, unless it fails a comparison (h false) and crossed that comparison's bound b
# since the previous tick's value p; then b.
_C_SNAP = """static double snap(double x, double p, double b, int h) {
    return h || !((p <= b && b <= x) || (x <= b && b <= p)) ? x : b;
}
"""


def _emit_automaton(swa: Swa, reaction: str) -> str:
    """Globals and the reaction.

    The tick rule is printed from the `switch_plan` by the printers that
    also print the Python runner (`swa.evolve_tests`, `swa.step_code`,
    `swa.switch_code`), spelt for C: each part's location index is the
    global ``l<p>``, its switch code writes the next one to the local
    ``l<p>_n``, which its re-entry reads, and the indices move only once
    every part has decided, so a stuck report names the locations the
    tick started in.  The visible and emitted events are the bits of the
    masks ``vis`` and ``emit``.  Part p's evolve test is the flag
    ``e<p>``, declared only for a part with a location that can fail it,
    and ``snap`` and the ``stuck:`` label are printed only in a unit that
    uses them.
    """
    plan = switch_plan(swa)
    start = [[loc.name for loc in locations].index(part.initial_state)
             for part, locations in zip(swa.parts or (swa,), plan.parts)]
    flags = [(f"e{p}", test) for p, test in enumerate(evolve_tests(plan.parts, C)) if test != C.true]
    w: list[str] = []
    emit = w.append
    emit("#include <math.h>")
    emit("")
    emit("long k = 0;")
    emit("int stuck = 0;")
    emit("unsigned long long vis = 0, emit = 0;")
    for p, d in enumerate(start):
        emit(f"int l{p} = {d};")
    initial = dict(pair for locations, d in zip(plan.parts, start) for pair in locations[d].witnesses)
    for v, x0q in swa.init_values:
        x0 = float(x0q)
        emit(f"double {ident('v', v)} = {c_float(x0)};")
        emit(f"double {ident('n', v)} = {c_float(x0)};")
        emit(f"double {ident('c1', v)} = {c_float(resolve_c1(initial[v], x0))};")
    emit("")
    if any(e.snaps for locations in plan.parts for loc in locations for e in loc.edges):
        w += [_C_SNAP]
    emit(f"void {reaction}(void) {{")
    for v in swa.variables:
        emit(f"    {ident('v', v)} = {ident('n', v)};")
    if flags:
        emit(f"    int {', '.join(f'{e} = {test}' for e, test in flags)};")
    emit(f"    if ({C.and_.join(e for e, _ in flags) or C.true}) {{")
    emit("        k = k + 1;")
    for p, locations in enumerate(plan.parts):
        w += indent(indent(step_code(p, locations, C, swa.delta_f)))
    emit("        return;")
    emit("    }")
    for p, locations in enumerate(plan.parts):
        emit(f"    int l{p}_n = l{p};")
        w += indent(switch_code(p, locations, C, swa.delta_f))
    for v in swa.variables:
        emit(f"    {ident('n', v)} = {ident('v', v)};")
    emit("    k = 0;")
    for p in range(len(plan.parts)):
        emit(f"    l{p} = l{p}_n;")
    if flags:  # some part's freeze check jumps here
        emit("    return;")
        emit("stuck:")
        emit("    stuck = 1;")
    emit("}")
    return "\n".join(w) + "\n"


_C_FORMAT = """static int fmt_g(char *s, double v) {
    double a = fabs(v), p = 1e14, t = 10, h = 0;
    long long n = 0;
    int x = 0, i;
    char *e, *q;
    if (a >= 1 && a < 1e15 - .5) {
        for (; a >= t; x++) t *= 10, p /= 10;
        n = h = a * p;
        h -= n;
    }
    if (!n || h == .5) return snprintf(s, 23, "%.15g", v);
    n += h > .5;
    if (n > 999999999999999) n /= 10, x++;
    for (i = 14 - x; i && n % 10 == 0; i--) n /= 10;
    *s = '-';
    e = q = s + (v < 0) + x + 1 + i + !!i;
    for (; n; n /= 10) {
        *--q = '0' + n % 10;
        if (!--i) *--q = '.';
    }
    return e - s;
}
"""
"""The driver's ``fmt_g(s, v)``: writes what ``snprintf(s, 23, "%.15g", v)`` writes, without its NUL, and
returns its length.

For 1 <= |v| < 999999999999999.5 it writes the digits itself, exactly,
unless the scaled value's fraction is exactly one half.  The loop finds
x = floor(log10 |v|) by comparing |v| with t = 10**(x+1) and steps
p = 10**(14 - x) down from 1e14; every power of ten up to 10**15 is a
double and each step's product or quotient is one, so both are exact
and the real product P = |v|*p lies in [1e14, 1e15).  h is P rounded
to a double, so |P - h| <= ulp(h)/2 <= 1/16, and with n the integer
part of h the fraction r = h - n is exact (h < 2**50) and a multiple of
ulp(h).  So r > 0.5 means r >= 0.5 + ulp(h) and P rounds to n + 1, and
r < 0.5 means r <= 0.5 - ulp(h) and P rounds to n; only r == 0.5
leaves the rounding to the error of h, and that value goes to
`snprintf` (a value with many digits does so with chance ulp(h), 1/64
to 1/8; the exact ties, which glibc rounds to even, are among them).  n is then
the 15 significant digits of |v| rounded to nearest; when rounding
carries to 10**15 they become 10**14 and x grows by one, and the bound
999999999999999.5, which itself rounds to 1e+15, keeps x below 15.  So
%.15g writes the fixed-point form: x + 1 integer digits, the point and
14 - x fraction digits, with trailing zeros and then a bare point
stripped; the zeros are stripped from n before its digits are written
backwards.  Every other value goes to `snprintf` too: 0, -0, NaN,
+-inf, |v| < 1 and the largest values.  This holds with the default
rounding to nearest and ``FLT_EVAL_METHOD == 0``, where every operation
rounds once, to double, as the reaction assumes too.  Neither path
needs libm (``fabs`` is inline), so a network without exponential
flows links no libm.  `tests/test_codegen.py` compares it with
`snprintf` on 7 * 10**6 doubles.
"""


def _c_time_field(swa: Swa) -> tuple[list[str], list[str], list[str]]:
    """The time field of row t: the declarators of its pointer, the statements that write it and those
    that step it.

    The tick is the decimal counter ``ds``: 19 zero-padded digits and a
    comma, with ``f`` at its first significant digit.  Each row copies it
    at a fixed width, and 1 is added with a carry at the end of the row,
    so no row divides.  With `decimal_delta` giving j the time field is
    the same digits: at j = 0 copied from ``f``, else from ``g``, the
    leftmost of ``f`` and the units digit of t / 10**j, with their last j
    moved one place right behind a point, then trailing zeros and a bare
    point stripped.  For any other delta the field is ``%.15g`` of
    t * delta_f, by ``fmt_g``.
    """
    j = decimal_delta(swa.delta)
    if j is None:
        return [], [f"o += fmt_g(o, t * {c_float(swa.delta_f)});"], []
    if j == 0:
        return [], ["memcpy(o, f, 20);", "o += ds + 19 - f;"], []
    return [f"*g = ds + {18 - j}"], [
        "memcpy(o, g, 20);",
        "o += ds + 20 - g;",
        f"memmove(o - {j}, o - {j + 1}, {j});",
        f"o[-{j + 1}] = '.';",
        "while (o[-1] == '0') o--;",
        "if (o[-1] == '.') o--;",
    ], ["if (p < g) g = p;"]


def _emit_driver(swa: Swa, reaction: str, options: CodegenOptions) -> str:
    plan = switch_plan(swa)
    events = swa.events()
    # each part's location name, read from its own table
    lvs = [f"l{p}" for p in range(len(plan.parts))]
    locs = [f"loc{p}[{lv}]" for p, lv in enumerate(lvs)]
    time_decls, time_row, time_step = _c_time_field(swa)
    # the longest row: a 19-digit tick and a time field of at most 23 characters, the location,
    # at most 22 characters per value, every event name, each field's separator and the newline
    width = (48 + sum(max(len(loc.name) for loc in locations) for locations in plan.parts)
             + 24 * len(swa.variables) + sum(len(e) + 1 for e in (*swa.inputs, *swa.outputs)))

    w: list[str] = []
    emit = w.append
    emit("#include <math.h>")
    emit("#include <stdio.h>")
    emit("#include <stdlib.h>")
    emit("#include <string.h>")
    emit("")
    emit(f"void {reaction}(void);")
    emit("extern long k;")
    emit(f"extern int stuck, {', '.join(lvs)};")
    emit("extern unsigned long long vis, emit;")
    for v in swa.variables:
        emit(f"extern double {ident('v', v)}, {ident('n', v)};")
    emit("")
    for p, locations in enumerate(plan.parts):
        table = ", ".join(f'"{loc.name}"' for loc in locations)
        emit(f"static const char *loc{p}[] = {{ {table} }};")
    emit("static struct { long t; unsigned long long m; } *stim;")
    emit("static long stim_n, stim_cap;")
    emit("")
    emit(f"static char buf[65536 + {width}], *o = buf;")
    counters = [f'ds[40] = "{"0" * 19},"', "*f = ds + 18", *time_decls, "*p"]
    emit(f"static char {', '.join(counters)};")
    emit("")
    emit("static void flush(void) {")
    emit("    fwrite(buf, 1, o - buf, stdout);")
    emit("    o = buf;")
    emit("}")
    emit("")
    emit("static void put_s(const char *s) {")
    emit("    size_t n = strlen(s);")
    emit("    memcpy(o, s, n);")
    emit("    o += n;")
    emit("}")
    emit("")
    if swa.variables or decimal_delta(swa.delta) is None:
        w += [_C_FORMAT]
    if swa.variables:
        # a slot holds the bits of a double and its %.15g; a variable's
        # 16,384 slots are 4,096 sets of four, the newest miss first; all
        # 23 bytes of s are copied, inside the row's 24 bytes per value
        emit("typedef struct { unsigned long long b; char n, s[23]; } slot;")
        emit(f"static slot {', '.join(ident('g', v) + '[16384]' for v in swa.variables)};")
        emit("")
        emit("static void put_g(double v, slot *c) {")
        emit("    unsigned long long b;")
        emit("    int i = 0;")
        emit("    memcpy(&b, &v, sizeof b);")
        emit("    c += b * 0x9E3779B97F4A7C15ULL >> 52 << 2;")
        emit("    while (i < 4 && (!c[i].n || c[i].b != b)) i++;")
        emit("    if (i == 4) {")
        emit("        memmove(c + 1, c, 3 * sizeof *c);")
        emit("        c->b = b;")
        emit("        c->n = fmt_g(c->s, v);")
        emit("        i = 0;")
        emit("    }")
        emit("    *o++ = ',';")
        emit("    memcpy(o, c[i].s, sizeof c->s);")
        emit("    o += c[i].n;")
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
        emit(f"    const char *stim_path = {c_string(options.stimulus_path)};")
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
        emit(f'            fprintf(stderr, "  {v} = %.17g\\n", {ident("n", v)});')
    for idx, e in enumerate(events):
        emit(f'            if (vis >> {idx} & 1) fprintf(stderr, "  visible: {e}\\n");')
    emit("            exit(3);")
    emit("        }")
    emit("        memcpy(o, f, 20);")
    emit("        o += ds + 20 - f;")
    for line in time_row:
        emit(f"        {line}")
    emit("        *o++ = ',';")
    for loc in locs:
        emit(f"        put_s({loc});")
    for v in swa.variables:
        emit(f"        put_g({ident('v', v)}, {ident('g', v)});")
    for shown, mask in ((swa.inputs, "vis"), (swa.outputs, "emit")):
        emit("        *o++ = ',';")
        for e in shown:
            emit(f'        put_e({mask} >> {events.index(e)} & 1, "{e}");')
    emit("        *o++ = '\\n';")
    emit("        if (o - buf > 65536) flush();")
    emit("        vis = emit;")
    emit("        emit = 0;")
    emit("        while (si < stim_n && stim[si].t <= t) vis |= stim[si++].m;")
    emit("        for (p = ds + 18, *p += 1; *p > '9'; ++*--p) *p -= 10;")
    emit("        if (p < f) f = p;")
    for line in time_step:
        emit(f"        {line}")
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


def write_whole(unit: CUnit, directory) -> Path:
    """Write the unit's two files and ``<name>_all.c``, which includes both, so that they compile as one
    translation unit; return the path of the last."""
    auto_path, main_path = write_unit(unit, directory)
    whole = Path(directory) / f"{unit.name}_all.c"
    whole.write_text(f'#include "{auto_path.name}"\n#include "{main_path.name}"\n', encoding="utf-8")
    return whole


def find_cc() -> str | None:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def build_binary(unit: CUnit, directory, cc: str | None = None) -> Path | None:
    """Compile the unit in ``directory`` as one translation unit (`write_whole`); None when no C compiler
    exists."""
    cc = cc or find_cc()
    if cc is None:
        return None
    binary = Path(directory) / unit.name
    cmd = [cc, "-O2", str(write_whole(unit, directory)), "-lm", "-o", str(binary)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"C compilation failed:\n{proc.stderr}")
    return binary
