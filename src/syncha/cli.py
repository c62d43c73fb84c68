"""Command line front end.

Subcommands mirror the pipeline stages: ``check`` validates a model,
``compile`` emits C, and ``simulate`` and ``compose-and-simulate``
produce traces.

Exit codes: 0 on success, 1 when a model fails validation, 2 for bad
input (unreadable files, parse errors, unusable flags), 3 when a run
gets stuck with no enabled reaction or a value overflows the float range.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .model import HybridAutomaton, ModelError, Network, load_model
from .shagen import IllFormedAutomaton, Sha, generate_sha, sha_to_ir
from .swa import (
    ENGINES,
    Swa,
    UnreachableState,
    build_swa,
    compose_all,
    read_stimulus,
    simulate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_STUCK = 3


def _delta_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid tick length {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("tick length must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncha",
        description="Compile hybrid automata into tick-synchronous programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("model", help="model file to read")
        sp.add_argument(
            "--delta",
            type=_delta_arg,
            default=Fraction(1, 100),
            help="tick length in seconds (default 0.01)",
        )

    sp = sub.add_parser("check", help="validate that every automaton is compilable")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("compile", help="emit C sources per automaton")
    common(sp)
    sp.add_argument("--automaton", help="restrict to one automaton")
    sp.add_argument("--out", default=".", help="output directory (default .)")
    sp.add_argument(
        "--ticks", type=int, default=10000, help="default tick count baked into the driver"
    )
    sp.add_argument("--stimulus", help="stimulus file path baked into the driver")
    sp.add_argument(
        "--emit-ir",
        action="store_true",
        help="also write the analysed automaton as <name>.ir.json",
    )
    sp.set_defaults(func=_cmd_compile)

    def sim_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--ticks", type=int, default=10000, help="reactions to run")
        sp.add_argument("--stimulus", help="stimulus file (tick,events rows)")
        sp.add_argument("--out", help="write the trace here instead of stdout")
        sp.add_argument(
            "--engine",
            choices=ENGINES,
            default="auto",
            help="interpreter choice (default auto)",
        )

    sp = sub.add_parser("simulate", help="run one automaton and print its trace")
    common(sp)
    sp.add_argument("--automaton", help="which automaton to run")
    sim_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser(
        "compose-and-simulate",
        help="run the synchronous product of all automata in the model",
    )
    common(sp)
    sim_flags(sp)
    sp.set_defaults(func=_cmd_compose_and_simulate)

    return parser


def _select(net: Network, name: str | None) -> list[HybridAutomaton]:
    if name is None:
        return list(net.automata)
    return [net.automaton(name)]


def _report(ha: HybridAutomaton, exc: IllFormedAutomaton) -> None:
    for diag in exc.report.to_diagnostics():
        print(f"{ha.name}: {diag}", file=sys.stderr)


def _analysed(automata: Sequence[HybridAutomaton], delta: Fraction) -> list[Sha] | None:
    """Analyse every automaton, which also validates it.

    Validation failures go to stderr and yield None; fairness warnings
    are printed only when every automaton passed.
    """
    shas: list[Sha] = []
    warnings: list[str] = []
    failed = False
    for ha in automata:
        try:
            sha, warns = generate_sha(ha, delta)
        except IllFormedAutomaton as exc:
            _report(ha, exc)
            failed = True
            continue
        shas.append(sha)
        warnings.extend(warns)
    if failed:
        return None
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return shas


def _composed(automata: Sequence[HybridAutomaton], delta: Fraction) -> Swa | None:
    shas = _analysed(automata, delta)
    return None if shas is None else compose_all(build_swa(sha) for sha in shas)


def _cmd_check(args) -> int:
    net = load_model(args.model)
    failed = False
    for ha in net.automata:
        try:
            _, warnings = generate_sha(ha, args.delta)
        except IllFormedAutomaton as exc:
            failed = True
            _report(ha, exc)
            n = len(exc.report.violations)
            print(f"{ha.name}: FAIL ({n} violation{'s' if n != 1 else ''})")
            continue
        print(f"{ha.name}: PASS")
        for w in warnings:
            print(f"{ha.name}: warning: {w}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_compile(args) -> int:
    from .codegen import CodegenOptions, emit_c, write_unit  # only this command emits C

    net = load_model(args.model)
    automata = _select(net, args.automaton)
    shas = _analysed(automata, args.delta)
    if shas is None:
        return EXIT_CHECK_FAILED
    outdir = Path(args.out)
    options = CodegenOptions(ticks=args.ticks, stimulus_path=args.stimulus)
    # emit every unit before writing any, so a rejected automaton leaves no files
    units = [emit_c(build_swa(sha), options) for sha in shas]
    for ha, sha, unit in zip(automata, shas, units):
        for path in write_unit(unit, outdir):
            print(path)
        if args.emit_ir:
            ir_path = outdir / f"{ha.name}.ir.json"
            ir_path.write_text(json.dumps(sha_to_ir(sha), indent=2) + "\n", encoding="utf-8")
            print(ir_path)
    return EXIT_OK


def _run_trace(swa: Swa, args) -> int:
    stimulus = None
    if args.stimulus:
        stimulus = read_stimulus(args.stimulus)
        unknown = sorted(
            {e for events in stimulus.values() for e in events} - set(swa.events())
        )
        if unknown:
            print(
                "warning: stimulus mentions unknown events, ignored: "
                + ", ".join(unknown),
                file=sys.stderr,
            )
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        simulate(swa, args.ticks, stimulus, out, engine=args.engine)
    except UnreachableState as exc:
        print(exc, file=sys.stderr)
        return EXIT_STUCK
    except OverflowError as exc:  # a witness left the double range, where C's exp gives inf
        print(f"error: automaton {swa.name}: a value overflowed the float range ({exc})", file=sys.stderr)
        return EXIT_STUCK
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _cmd_simulate(args) -> int:
    net = load_model(args.model)
    automata = _select(net, args.automaton)
    if len(automata) > 1:
        print(
            f"model has {len(automata)} automata; pick one with --automaton"
            " or use compose-and-simulate",
            file=sys.stderr,
        )
        return EXIT_USAGE
    swa = _composed(automata, args.delta)
    if swa is None:
        return EXIT_CHECK_FAILED
    return _run_trace(swa, args)


def _cmd_compose_and_simulate(args) -> int:
    net = load_model(args.model)
    swa = _composed(net.automata, args.delta)
    if swa is None:
        return EXIT_CHECK_FAILED
    return _run_trace(swa, args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnreachableState as exc:
        print(exc, file=sys.stderr)
        return EXIT_STUCK


if __name__ == "__main__":
    sys.exit(main())
