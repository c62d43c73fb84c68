"""End-to-end acceptance checks, one test per shipping criterion.

Every test prints a single verdict line with its measured numbers (run
pytest with -s to see them); the assertions are what gate the suite.
"""

import io
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from syncha.cli import main
from syncha.codegen import CodegenOptions, build_binary, emit_c, find_cc
from syncha.expr import AffineExpr, Interval, sign_region
from syncha.model import ModelSyntaxError, load_model, parse_model
from syncha.odesolve import (
    Monotonicity,
    classify_monotonicity,
    resolve_c1,
    solve_ode,
    time_to_reach,
)
from syncha.shagen import generate_sha
from syncha.swa import (
    UnreachableState,
    compile_automaton,
    compose,
    compose_all,
    initial_exec_state,
    simulate,
    tick,
)
from syncha.whacheck import NO_CLOSED_FORM, check_wha
from oracles import (
    CosimStuck,
    actual_egress_shape,
    cosimulate,
    expected_product_egress,
    fuzz_model,
    parse_trace,
    rk4_affine,
    sampled_directions,
)

DELTA = Fraction(1, 100)


@contextmanager
def criterion(number: int, title: str):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {number} ({title}): FAIL", flush=True)
        raise
    detail = info.get("detail", "")
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} ({title}): PASS{suffix}", flush=True)


def trace_of(swa, ticks, stimulus=None, engine="compiled"):
    buf = io.StringIO()
    simulate(swa, ticks, stimulus=stimulus, out=buf, engine=engine)
    return buf.getvalue()


def assert_traces_close(name, ref_text, other_text, tol=1e-9):
    if ref_text == other_text:
        return
    ref_lines = ref_text.splitlines()
    other_lines = other_text.splitlines()
    assert len(ref_lines) == len(other_lines), f"{name}: row counts differ"
    assert ref_lines[0] == other_lines[0], f"{name}: headers differ"
    n_vars = len(ref_lines[0].split(",")) - 5
    for row, (ra, rb) in enumerate(zip(ref_lines[1:], other_lines[1:])):
        pa, pb = ra.split(","), rb.split(",")
        assert pa[0] == pb[0] and pa[2] == pb[2], f"{name} row {row}: tick or location"
        assert pa[3 + n_vars :] == pb[3 + n_vars :], f"{name} row {row}: events"
        for col in range(3, 3 + n_vars):
            va, vb = float(pa[col]), float(pb[col])
            assert abs(va - vb) <= tol, f"{name} row {row} col {col}: {va} vs {vb}"


def test_criterion_1_worst_case_dwell(watertank_net):
    with criterion(1, "worst-case dwell") as info:
        start = time.perf_counter()
        sha, _ = generate_sha(watertank_net.automaton("tank"), DELTA)
        elapsed = time.perf_counter() - start
        t4 = sha.analysis("t4")
        expected = math.log(0.2) / -0.075
        assert abs(t4.worst_case_time - expected) < 1e-6
        assert t4.nsteps == 2146
        assert elapsed < 1.0
        info["detail"] = (
            f"t4 dwell {t4.worst_case_time:.12f} s = ln(0.2)/-0.075, "
            f"{t4.nsteps} steps at delta {DELTA}, analysed in {elapsed * 1000:.1f} ms"
        )


def test_criterion_2_monotonicity():
    with criterion(2, "monotonicity verdicts") as info:
        rhs = AffineExpr(Fraction(-3, 40), Fraction(45, 4), "x")  # 0.075 * (150 - x)
        pos = sign_region(rhs, True)
        neg = sign_region(rhs, False)
        assert math.isinf(pos.lo) and pos.hi == Fraction(150) and not pos.hi_closed
        assert neg.lo == Fraction(150) and not neg.lo_closed and math.isinf(neg.hi)

        tight = Interval.closed(Fraction(20), Fraction(100))
        wide = Interval.closed(Fraction(0), Fraction(300))
        assert classify_monotonicity(rhs, tight) is Monotonicity.INCREASING
        assert classify_monotonicity(rhs, wide) is Monotonicity.NON_MONOTONE

        assert sampled_directions(-0.075, 11.25, 20.0, 100.0) == (True, False)
        assert sampled_directions(-0.075, 11.25, 0.0, 300.0) == (True, True)
        info["detail"] = (
            "sign regions split at 150; [20,100] INCREASING, [0,300] NON_MONOTONE, "
            "sampling oracle agrees"
        )


def test_criterion_3_wellformedness_gate(watertank_net, fixtures_dir):
    with criterion(3, "well-formedness gate") as info:
        start = time.perf_counter()
        for auto in watertank_net.automata:
            assert check_wha(auto).passed

        squared = load_model(fixtures_dir / "squared.pha")
        report = check_wha(squared.automaton("quad"))
        assert [v.kind for v in report.violations] == [NO_CLOSED_FORM]

        with pytest.raises(ModelSyntaxError, match="disjunction"):
            load_model(fixtures_dir / "disjunct.pha")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = (
            "water tank accepted, quadratic flow and disjunctive guard rejected "
            f"in {elapsed * 1000:.1f} ms"
        )


def test_criterion_4_guard_saturation(fixtures_dir):
    with criterion(4, "guard saturation") as info:
        net = load_model(fixtures_dir / "satramp.pha")
        swa, _ = compile_automaton(net.automaton("ramp"), Fraction(1))
        _, rows = parse_trace(trace_of(swa, 8))
        values = [r.values[0] for r in rows]
        assert max(values) <= 50.0
        assert values[5] == 50.0  # exact: the switch snaps onto the bound
        assert rows[5].location == "capped"

        witness = swa.state("rising").witness_for("y")
        crossing = time_to_reach(witness, 0.0, 50.0)
        assert abs(crossing - 50.0 / 10.3) < 1e-9
        assert 4.0 < crossing <= 5.0  # inside the saturating tick's window
        info["detail"] = (
            f"ramp capped at exactly 50, analytic crossing {crossing:.9f} s "
            "inside tick window (4, 5]"
        )


def test_criterion_5_witness_vs_numerical():
    with criterion(5, "closed form vs numerical oracle") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(20260814)
        n = 1000
        zero = rng.random(n) < 0.2
        magnitude = 10.0 ** rng.uniform(-3.0, math.log10(3.0), n)
        a = np.where(zero, 0.0, np.where(rng.random(n) < 0.5, -1.0, 1.0) * magnitude)
        b = rng.uniform(-5.0, 5.0, n)
        x0 = rng.uniform(-50.0, 50.0, n)
        steps = rng.integers(1, 20001, n)

        numeric = rk4_affine(a, b, x0, steps, h=1e-4)
        worst = 0.0
        for i in range(n):
            witness = solve_ode("x", AffineExpr(Fraction(a[i]), Fraction(b[i]), "x"))
            c1 = resolve_c1(witness, float(x0[i]))
            value = witness.value_at(c1, float(steps[i]) * 1e-4)
            assert math.isclose(value, numeric[i], rel_tol=1e-8, abs_tol=1e-12), (
                f"case {i}: a={a[i]}, b={b[i]}, x0={x0[i]}, steps={steps[i]}: "
                f"{value} vs {numeric[i]}"
            )
            scale = max(abs(value), abs(numeric[i]), 1e-12)
            worst = max(worst, abs(value - numeric[i]) / scale)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = (
            f"{n} random affine flows, worst relative gap {worst:.3e} "
            f"(tolerance 1e-8), {elapsed:.2f} s"
        )


def _benchmark_swas(models_dir):
    pairs = []
    for path in ("watertank.pha", "thermostat.pha", "traingate.pha"):
        net = load_model(models_dir / path)
        swas = [compile_automaton(ha, DELTA)[0] for ha in net.automata]
        pairs.append(compose_all(swas))
    for seed in (0, 1, 2):
        net = parse_model(fuzz_model(seed))
        swa, _ = compile_automaton(net.automata[0], Fraction(1, 10))
        pairs.append(swa)
    return pairs


def test_criterion_6_interpreter_vs_emitted_c(models_dir, tmp_path):
    with criterion(6, "interpreter vs emitted C") as info:
        ticks = 100_000
        swas = _benchmark_swas(models_dir)
        references = {}
        for swa in swas:
            reference = trace_of(swa, ticks, engine="generic")
            assert trace_of(swa, ticks, engine="compiled") == reference
            references[swa.name] = reference

        if find_cc() is None:
            info["detail"] = "engines agree; C half skipped, no compiler"
            pytest.skip("no C compiler on PATH; interpreter sub-checks passed")

        for swa in swas:
            unit = emit_c(swa, CodegenOptions(ticks=ticks))
            binary = build_binary(unit, tmp_path)
            proc = subprocess.run(
                [str(binary), str(ticks)], capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, f"{swa.name}: {proc.stderr}"
            assert_traces_close(swa.name, references[swa.name], proc.stdout)
        info["detail"] = (
            f"3 bundled + 3 fuzzed automata, {ticks} ticks each, "
            "every value within 1e-9"
        )


def test_criterion_7_composition(watertank_net, tank_swa, burner_swa, watertank_swa):
    with criterion(7, "synchronous product") as info:
        tank_ha = watertank_net.automaton("tank")
        burner_ha = watertank_net.automaton("burner")
        product = watertank_swa

        assert len(product.states) == len(tank_swa.states) * len(burner_swa.states)
        for s1 in tank_swa.states:
            for s2 in burner_swa.states:
                ps = product.state(s1.name + s2.name)
                expected_guard = s1.self_transition.guard.conjoin(
                    s2.self_transition.guard
                )
                assert ps.self_transition.guard == expected_guard
                assert set(ps.self_transition.absent) == set(
                    s1.self_transition.absent + s2.self_transition.absent
                )

        for loc1 in tank_ha.locations:
            for loc2 in burner_ha.locations:
                expected = expected_product_egress(
                    tank_ha, burner_ha, loc1.name, loc2.name
                )
                actual = actual_egress_shape(product, loc1.name + loc2.name)
                assert actual == expected, f"egress of {loc1.name}{loc2.name}"

        rng = np.random.default_rng(7)
        ticks = 400
        for trial in range(10):
            stimulus = {}
            for _ in range(int(rng.integers(1, 8))):
                t = int(rng.integers(0, ticks))
                events = [("ON",), ("OFF",), ("ON", "OFF")][int(rng.integers(0, 3))]
                stimulus[t] = stimulus.get(t, frozenset()) | frozenset(events)
            _compare_against_cosim(product, tank_swa, burner_swa, ticks, stimulus)
        info["detail"] = (
            "8 product states, brute-force transition inventory matches, "
            "10 random stimulus runs equal the lock-step co-simulation"
        )


def _compare_against_cosim(product, a, b, ticks, stimulus):
    try:
        oracle_rows, oracle_stuck = cosimulate(a, b, ticks, stimulus), None
    except CosimStuck as exc:
        oracle_rows, oracle_stuck = exc.rows, exc.tick

    known = frozenset(product.events())
    st = initial_exec_state(product)
    for t in range(ticks):
        supplied = stimulus.get(t)
        inputs = (frozenset(supplied) & known) if supplied else frozenset()
        try:
            st, emitted = tick(product, st, inputs)
        except UnreachableState:
            assert oracle_stuck == t, f"engine stuck at {t}, oracle at {oracle_stuck}"
            return
        row = oracle_rows[t]
        assert st.location == row.location, f"tick {t}"
        assert st.v == row.values, f"tick {t}"
        assert st.k == row.k, f"tick {t}"
        assert emitted == row.emitted, f"tick {t}"
    assert oracle_stuck is None


def test_criterion_8_throughput(watertank_swa):
    with criterion(8, "throughput") as info:
        ticks = 10_000_000
        simulate(watertank_swa, 1)  # build the specialised runner up front
        start = time.perf_counter()
        simulate(watertank_swa, ticks)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        unit = emit_c(watertank_swa)
        source_bytes = len(unit.automaton_source) + len(unit.driver_source)
        info["detail"] = (
            f"{ticks} ticks in {elapsed:.2f} s "
            f"({ticks / elapsed:,.0f} ticks/s), emitted source {source_bytes} bytes"
        )


def test_criterion_9_determinism(models_dir, tmp_path):
    with criterion(9, "determinism") as info:
        model = str(models_dir / "watertank.pha")
        outputs = []
        for i in range(2):
            path = tmp_path / f"trace{i}.csv"
            code = main(
                ["compose-and-simulate", model, "--ticks", "3000", "--out", str(path)]
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

        seeds = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "syncha", "simulate", model,
                 "--automaton", "burner", "--ticks", "2600"],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0
            seeds.append(proc.stdout)
        assert seeds[0] == seeds[1]
        info["detail"] = (
            "repeated runs byte-identical, including across hash seeds "
            f"({len(outputs[0])} byte trace)"
        )
