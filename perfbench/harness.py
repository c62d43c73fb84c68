"""The measuring harness: operations on each network, rounds, spans and metrics.

Imported by run.py once `src/` and this directory are on `sys.path`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import checks
import workloads
from syncha import swa
from syncha.codegen import CodegenOptions, build_binary, emit_c
from syncha.model import load_model
from syncha.shagen import generate_sha
from syncha.swa import read_stimulus, simulate
from syncha.whacheck import check_wha

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_ROUNDS = 3
SUBPROCESS_TIMEOUT = 120

SHORT = 5  # traced, generic and CLI samples run ticks // SHORT
C_TICKS = 50_000  # C samples run at least this many ticks, 60 ms or more
# Each round runs every operation this many times on every network; the
# shortest and noisiest samples get the most repetitions.
REPS = {"setup": 2, "py_run": 5, "py_trace": 5, "generic": 3, "c_build": 2, "c_run": 4, "cli": 2}
# The operations that run on the warm product, after a round's set-ups.
BODY_OPS = ("py_run", "py_trace", "generic", "c_build", "c_run", "cli")
# A fixed pure-Python probe timed before every sample, and the time it
# takes at the nominal speed the end-to-end times are scaled to.  A
# sample's speed is the median of the probes within PROBE_WINDOW of its own.
PROBE_ADDS, PROBE_ROWS = 30_000, 3_000
PROBE_NOMINAL_S = 0.0035
PROBE_WINDOW = 5

LAYER_SPANS = (
    "model.parse",
    "whacheck.check",
    "shagen.analyse",
    "swa.lower",
    "swa.compose",
    "swa.runner_build",
    "swa.run",
    "swa.trace",
    "swa.generic_run",
    "codegen.emit",
    "codegen.cc",
    "codegen.c_run",
    "cli.import",
    "cli.stimulus_load",
)
LAYER_COUNTS = (
    ("swa.product_states", "count"),
    ("swa.product_egress", "count"),
    ("swa.runner_source_bytes", "bytes"),
    ("swa.trace_bytes", "bytes"),
    ("swa.switch_ticks", "count"),
    ("swa.evolve_ticks", "count"),
    ("swa.events_emitted", "count"),
    ("codegen.binary_bytes", "bytes"),
)


class CheckFailed(Exception):
    """An output differs from what the independent check expects."""


class Tracer:
    """Spans (name, start, end, parent, workload id) kept in memory."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.on = False
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str, net: str = ""):
        if not self.on:
            yield
            return
        record = {
            "name": name,
            "net": net,
            "start": time.perf_counter(),
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "workload": self.workload_id,
        }
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()

    def add(self, name: str, net: str, start: float, end: float) -> None:
        """A span measured elsewhere (inside a child process)."""
        if self.on:
            parent = self.stack[-1] if self.stack else None
            self.spans.append(
                {"name": name, "net": net, "start": start, "end": end,
                 "parent": parent, "workload": self.workload_id}
            )

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def probe() -> float:
    """Seconds the probe takes: the machine's speed of the moment.

    Integer additions alone tracked the drift of the C runs and the
    no-trace engine; the traced and generic engines, which allocate and
    format, sped up more than they did when the machine got faster.  So
    the probe also builds and formats rows.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ADDS):
        total += i
    rows = [(i, i * 0.5, f"{i * 0.37:.6g}") for i in range(PROBE_ROWS)]
    assert len(rows) == PROBE_ROWS
    return time.perf_counter() - start


def _sha(path: Path, lines: int | None = None) -> str:
    """SHA-256 of a file, or of its first `lines` lines."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in islice(fh, lines):
            h.update(line)
    return h.hexdigest()


def _fresh(path: Path) -> Path:
    """Remove an earlier output, so the next write makes a new file.

    Truncating a file that still has data makes ext4 flush it when the
    writer closes it, which puts disk latency into the timed region.
    """
    path.unlink(missing_ok=True)
    return path


def _import_seconds(stderr: str) -> float:
    """Cumulative import time of the top-level syncha modules (-X importtime)."""
    total = 0
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \| (syncha\S*)$", stderr, re.M):
        total += int(m.group(1))
    return total / 1e6


class Net:
    """One network of a workload and every operation the benchmark runs on it.

    No-trace runs cover the network's full tick count, and C runs at
    least C_TICKS.  Traced, generic and CLI runs are about ten times
    slower per tick, so they cover a fifth of it and their samples stay
    short.  Every repetition must repeat the first one exactly, and the
    short traces of all engines share one reference hash.  The checks then
    run the Python engines and the CLI once over the full tick count.
    """

    def __init__(self, spec, work: Path, env: dict[str, str]):
        self.spec, self.env = spec, env
        self.name = spec.name
        self.ticks = spec.ticks
        self.short = spec.ticks // SHORT
        self.c_ticks = max(spec.ticks, C_TICKS)
        d = work / spec.name
        d.mkdir(parents=True)
        self.model = spec.path or d / "model.pha"
        if spec.path is None:
            self.model.write_text(workloads.render(spec), encoding="utf-8")
        self.stim_path = d / "stimulus.csv"
        self.stim_path.write_text(workloads.render_stimulus(spec), encoding="utf-8")
        self.stimulus = read_stimulus(self.stim_path)
        self.trace_path = d / "trace.csv"  # the full-length specialised trace
        self.out = d / "out.csv"
        self.c_dir = d / "c"
        self.run_binary = d / "run.bin"
        self.product = None
        self.binary = None
        self.ref: dict = {}

    def _same(self, key: str, value) -> None:
        """The first value becomes the reference; later ones must equal it."""
        if key not in self.ref:
            self.ref[key] = value
        elif self.ref[key] != value:
            raise CheckFailed(f"{self.name}: {key} differs from its first value")

    # --- runs that write a trace to `path` ----------------------------------------

    def _trace(self, ticks: int, path: Path, engine: str = "auto"):
        with open(_fresh(path), "w", encoding="utf-8") as fh:
            return simulate(self.product, ticks, self.stimulus, out=fh, engine=engine)

    def _c(self, ticks: int, path: Path) -> None:
        cmd = [str(self.run_binary), str(ticks), str(self.stim_path)]
        with open(_fresh(path), "wb") as fh:
            subprocess.run(cmd, stdout=fh, check=True, timeout=SUBPROCESS_TIMEOUT)

    def _c_hashed(self, ticks: int) -> str:
        """Run the binary into a pipe and hash its trace as it arrives."""
        h = hashlib.sha256()
        cmd = [str(self.run_binary), str(ticks), str(self.stim_path)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            for block in iter(lambda: proc.stdout.read(1 << 16), b""):
                h.update(block)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.name}: the C binary exited with {proc.returncode}")
        return h.hexdigest()

    def _cli(self, ticks: int, path: Path, importtime: bool = False) -> str:
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-m", "syncha", "compose-and-simulate", str(self.model), "--ticks", str(ticks),
               "--stimulus", str(self.stim_path), "--out", str(_fresh(path))]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.name}: the CLI exited with {proc.returncode}:\n{proc.stderr}")
        return proc.stderr

    # --- timed operations; each returns the seconds it took -------------------------

    def setup(self, tr: Tracer) -> float:
        swa._build_runner.cache_clear()  # measure the runner build cold
        start = time.perf_counter()
        with tr.span("setup", self.name):
            with tr.span("model.parse", self.name):
                network = load_model(self.model)
            with tr.span("whacheck.check", self.name):
                reports = [check_wha(ha) for ha in network.automata]
            if not all(r.passed for r in reports):
                raise CheckFailed(f"{self.name}: a generated automaton fails check_wha")
            with tr.span("shagen.analyse", self.name):
                shas = [generate_sha(ha, self.spec.delta)[0] for ha in network.automata]
            with tr.span("swa.lower", self.name):
                swas = [swa.build_swa(sha) for sha in shas]
            with tr.span("swa.compose", self.name):
                product = swa.compose_all(swas)
            with tr.span("swa.runner_build", self.name):
                simulate(product, 0)
        elapsed = time.perf_counter() - start
        self.product = product
        self._same("product size", (len(product.states), sum(len(s.egress) for s in product.states)))
        return elapsed

    def warm(self) -> None:
        """Rebuild both cached runners after a cold set-up, outside any timing."""
        simulate(self.product, 1, self.stimulus)
        simulate(self.product, 1, self.stimulus, out=io.StringIO())

    def py_run(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("swa.run", self.name):
            state = simulate(self.product, self.ticks, self.stimulus)
        elapsed = time.perf_counter() - start
        self._same("final state", state)
        return elapsed

    def py_trace(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("swa.trace", self.name):
            state = self._trace(self.short, self.out)
        elapsed = time.perf_counter() - start
        self._same("short state", state)
        self._same("short trace", _sha(self.out))
        return elapsed

    def generic(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("swa.generic_run", self.name):
            state = simulate(self.product, self.short, self.stimulus, engine="generic")
        elapsed = time.perf_counter() - start
        self._same("short state", state)
        return elapsed

    def c_build(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("codegen.emit", self.name):
            unit = emit_c(self.product, CodegenOptions(ticks=self.ticks))
        with tr.span("codegen.cc", self.name):
            binary = build_binary(unit, self.c_dir)
        elapsed = time.perf_counter() - start
        if binary is None:
            raise RuntimeError("no C compiler on PATH")
        self.binary = binary
        self._same("C source bytes", len(unit.automaton_source) + len(unit.driver_source))
        self._same("binary bytes", binary.stat().st_size)
        return elapsed

    def c_run(self, tr: Tracer) -> float:
        # Each sample runs a fresh copy.  The binary the linker has just
        # written ran 19-50 ms for the same ticks from one build to the
        # next; fresh copies of it all ran within a few ms of each other.
        shutil.copy2(self.binary, _fresh(self.run_binary))
        start = time.perf_counter()
        with tr.span("codegen.c_run", self.name):
            sha = self._c_hashed(self.c_ticks)
        elapsed = time.perf_counter() - start
        self._same("C trace", sha)
        return elapsed

    def cli(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("cli", self.name):
            stderr = self._cli(self.short, self.out, importtime=tr.on)
            tr.add("cli.import", self.name, start, start + _import_seconds(stderr))
        elapsed = time.perf_counter() - start
        self._same("short trace", _sha(self.out))
        return elapsed

    def stimulus_load(self, tr: Tracer) -> float:
        start = time.perf_counter()
        with tr.span("cli.stimulus_load", self.name):
            stimulus = read_stimulus(self.stim_path)
        elapsed = time.perf_counter() - start
        if stimulus != self.stimulus:
            raise CheckFailed(f"{self.name}: the stimulus reads back differently")
        return elapsed

    def runner_source(self) -> str:
        return swa._runner_source(self.product, False)

    # --- checks over the full tick count, after the warm-up round ---------------------

    def correctness_checks(self) -> list[tuple[str, callable]]:
        def engines_agree():
            self._same("final state", self._trace(self.ticks, self.trace_path))
            want = _sha(self.trace_path)
            if _sha(self.trace_path, self.short + 1) != self.ref["short trace"]:
                raise CheckFailed(f"{self.name}: the short traces are not a prefix of the full one")
            self._trace(self.ticks, self.out, engine="generic")
            shas = {"generic": _sha(self.out)}
            self._cli(self.ticks, self.out)
            shas["CLI"] = _sha(self.out)
            if self.spec.with_c:
                self._c(self.c_ticks, self.out)
                if _sha(self.out) != self.ref["C trace"]:
                    raise CheckFailed(f"{self.name}: the C trace differs between runs")
                shas["C"] = _sha(self.out, self.ticks + 1)
            for label, sha in shas.items():
                if sha != want:
                    raise CheckFailed(f"{self.name}: the {label} trace differs from the specialised one")
            self.ref["trace bytes"] = self.trace_path.stat().st_size

        def product_size():
            want = checks.product_size(self.spec)
            if self.ref["product size"] != want:
                raise CheckFailed(f"{self.name}: product has {self.ref['product size']}, expected {want}")

        def trace_rules():
            with open(self.trace_path, encoding="utf-8") as fh:
                stats = checks.check_trace(self.spec, fh)
            if stats.errors:
                raise CheckFailed(f"{self.name}: " + "\n  ".join(stats.errors))
            self.ref["counts"] = (stats.switch_ticks, stats.evolve_ticks, stats.events_emitted)

        def exact_replay():
            with open(self.trace_path, encoding="utf-8") as fh:
                errors = checks.check_linear(self.spec, fh)
            if errors:
                raise CheckFailed(f"{self.name}: " + "\n  ".join(errors))

        out = [("engines agree", engines_agree), ("product size", product_size),
               ("trace rules", trace_rules)]
        if checks.clock_network(self.spec):
            out.append(("exact replay", exact_replay))
        return out


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.tracer = Tracer(f"{workload}:{seed}")
        self.attempted = self.failed = 0
        self.correct = True
        # (index of the probe taken just before it, seconds) per sample
        self.samples: dict[tuple[str, str], list[tuple[int, float]]] = {}
        self.probes: list[float] = []
        self.round_walls: dict[bool, list[float]] = {True: [], False: []}
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        specs = workloads.workload(workload, seed, SRC / "syncha" / "models")
        self.nets = [Net(spec, self.work, self.env) for spec in specs]

    def attempt(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.correct = False
            print(f"CHECK FAILED [{label}]: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            print(f"FAILED [{label}]:\n{traceback.format_exc()}", file=sys.stderr)
        return None

    def schedule(self, reps: dict[str, int]) -> list[tuple[Net, str]]:
        """The operations of one round after its set-ups, in the order they run.

        The k-th of an operation's r repetitions on a network runs at k/r of
        the round.  The machine's speed drifts by 10-30% over tens of
        seconds, so samples of one operation that ran back to back all
        caught the same moment; spread out, each operation's median covers
        the whole round.  Ties run in BODY_OPS order, so a round's first C
        build comes before its first C run.
        """
        slots = []
        for i, net in enumerate(self.nets):
            for j, op in enumerate(BODY_OPS):
                if op.startswith("c_") and not net.spec.with_c:
                    continue
                r = reps[op]
                slots += [(k / r, j, i, net, op) for k in range(r)]
        slots.sort(key=lambda slot: slot[:3])
        return [(net, op) for *_, net, op in slots]

    def round(self, record: bool, reps: dict[str, int] = REPS) -> None:
        """Set-ups first, then every other operation spread over the round.

        Each set-up clears the runner cache, so all of them run before the
        warm products are used.
        """
        tr = self.tracer
        start = time.perf_counter()
        for net in self.nets:
            for _ in range(reps["setup"]):
                self._op(net, "setup", record)
        for net in self.nets:
            if net.product is not None:
                self.attempt(f"{net.name} warm", net.warm)
                self._op(net, "stimulus_load", record)
        for net, op in self.schedule(reps):
            if net.product is not None:
                self._op(net, op, record)
        if record:
            self.round_walls[tr.on].append(time.perf_counter() - start)

    def _op(self, net: Net, op: str, record: bool) -> None:
        if record:  # traced rounds probe too, so their wall time stays comparable
            self.probes.append(probe())
        elapsed = self.attempt(f"{net.name} {op}", lambda: getattr(net, op)(self.tracer))
        if elapsed is not None and record and not self.tracer.on:
            self.samples.setdefault((op, net.name), []).append((len(self.probes) - 1, elapsed))

    def run(self, seconds: float) -> dict:
        start = time.perf_counter()
        self.round(record=False, reps=dict.fromkeys(REPS, 1))  # warm-up; its outputs are the ones checked
        for net in self.nets:
            for label, fn in net.correctness_checks():
                self.attempt(f"{net.name} {label}", fn)
        checked, rounds = time.perf_counter(), 0
        # Start a round only if a round of average length still ends within
        # `seconds`, so a run's length stays bounded whatever its round length.
        while rounds < MIN_ROUNDS or (time.perf_counter() - checked) * (1 + 1 / rounds) <= seconds:
            self.tracer.on = self.trace and rounds % 2 == 0
            self.round(record=True)
            rounds += 1
        self.tracer.on = False
        print(f"  warm-up round and checks {checked - start:.1f} s, {rounds} timed rounds "
              f"in {time.perf_counter() - checked:.1f} s: "
              + " ".join(f"{w:.2f}" for w in self.round_walls[False] + self.round_walls[True]),
              file=sys.stderr)
        if self.trace:
            return self.layer_metrics()
        self.report()
        return self.end_to_end()

    # --- metrics ----------------------------------------------------------------

    def speed(self, i: int) -> float:
        """The machine's speed around probe i, as a share of nominal (above 1 is slower)."""
        window = self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        return statistics.median(window) / PROBE_NOMINAL_S

    def _median_sum(self, op: str, nets, scaled: bool) -> float:
        """The sum over `nets` of each network's median sample of `op`.

        Scaled, each sample is divided by the speed the probes around it
        measured, which takes the machine's drift out of it.
        """
        def seconds(i, elapsed):
            return elapsed / self.speed(i) if scaled else elapsed

        return sum(statistics.median(seconds(*s) for s in self.samples[(op, n.name)]) for n in nets)

    def end_to_end(self, scaled: bool = True) -> dict:
        nets = self.nets
        c_nets = [n for n in nets if n.spec.with_c]
        median = lambda op, nets: self._median_sum(op, nets, scaled)
        return {
            "setup_s": (median("setup", nets), "s"),
            "py_run_ticks_per_s": (sum(n.ticks for n in nets) / median("py_run", nets), "1/s"),
            "py_trace_ticks_per_s": (sum(n.short for n in nets) / median("py_trace", nets), "1/s"),
            "generic_ticks_per_s": (sum(n.short for n in nets) / median("generic", nets), "1/s"),
            "c_build_s": (median("c_build", c_nets), "s"),
            "c_trace_ticks_per_s": (sum(n.c_ticks for n in c_nets) / median("c_run", c_nets), "1/s"),
            "cli_wall_s": (median("cli", nets), "s"),
            "c_source_bytes": (sum(n.ref["C source bytes"] for n in c_nets), "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def report(self) -> None:
        """Unscaled sample medians, quartiles of the speed and unscaled metrics, on stderr."""
        for (op, net), values in sorted(self.samples.items()):
            print(f"  {op:<14} {net:<12} median {statistics.median(e for _, e in values):.6f} s"
                  f"  (n={len(values)}, unscaled)", file=sys.stderr)
        speeds = [self.speed(i) for i in range(len(self.probes))]
        print(f"  speed (probe time / nominal) over {len(speeds)} probes: quartiles "
              + " ".join(f"{q:.3f}" for q in statistics.quantiles(speeds, n=4)), file=sys.stderr)
        for name, (value, unit) in self.end_to_end(scaled=False).items():
            print(f"  unscaled {name:<22} {value:.6g} {unit}", file=sys.stderr)

    def layer_metrics(self) -> dict:
        tr = self.tracer
        own = tr.self_times()
        by: dict[tuple[str, str], list[float]] = {}
        for s, t in zip(tr.spans, own):
            by.setdefault((s["name"], s["net"]), []).append(t)
        m = {}
        for name in LAYER_SPANS:
            m[f"{name}_s"] = (sum(statistics.median(v) for (n, _), v in by.items() if n == name), "s")
        counts = {
            "swa.product_states": sum(n.ref["product size"][0] for n in self.nets),
            "swa.product_egress": sum(n.ref["product size"][1] for n in self.nets),
            "swa.runner_source_bytes": sum(len(n.runner_source()) for n in self.nets),
            "swa.trace_bytes": sum(n.ref["trace bytes"] for n in self.nets),
            "swa.switch_ticks": sum(n.ref["counts"][0] for n in self.nets),
            "swa.evolve_ticks": sum(n.ref["counts"][1] for n in self.nets),
            "swa.events_emitted": sum(n.ref["counts"][2] for n in self.nets),
            "codegen.binary_bytes": sum(n.ref["binary bytes"] for n in self.nets if n.spec.with_c),
        }
        for name, unit in LAYER_COUNTS:
            m[name] = (counts[name], unit)
        traced = statistics.median(self.round_walls[True])
        untraced = statistics.median(self.round_walls[False])
        m["bench.trace_overhead_s"] = (traced - untraced, "s")
        print(f"  round wall: traced {traced:.4f} s (n={len(self.round_walls[True])}), "
              f"untraced {untraced:.4f} s (n={len(self.round_walls[False])})", file=sys.stderr)
        print("  self time per layer (median per network, summed):", file=sys.stderr)
        for name, (value, unit) in m.items():
            print(f"    {name:<28} {value:.6g} {unit}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{self.workload}-{self.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for s, t in zip(tr.spans, own):
                fh.write(json.dumps(dict(s, self=t)) + "\n")
        print(f"  {len(tr.spans)} spans written to {spans_file}", file=sys.stderr)
        return m


