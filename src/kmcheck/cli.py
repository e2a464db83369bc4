"""Command line front end: check, simulate, export-dot."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys

from .checker import (
    DEFAULT_MAX_BOUND,
    DEFAULT_MAX_CONFIGS,
    CheckStats,
    EventualReceptionViolation,
    Inconclusive,
    ProgressViolation,
    Safe,
    Unsafe,
    Violation,
    check_kmc_detailed,
)
from .dot import machine_to_dot
from .dsl import DslError, parse_system
from .semantics import ResourceExhausted
from .simulator import DEFAULT_MAX_STEPS, DEFAULT_SEED, Outcome, format_trace, simulate

EX_USAGE = 64
EX_DATAERR = 65
EX_RESOURCE = 70
EX_CRASH = 71  # a fault in kmcheck itself: not a verdict
EX_IOERR = 74


def _at_least(low: int):
    """An argparse type: an integer of at least `low`.  A non-number raises
    `ValueError`, which argparse reports as an "invalid integer value"
    after the function's name."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kmcheck", description="Bounded compatibility "
                                     "checking for asynchronous message-passing protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="find the least safe bound or a counterexample")
    check.add_argument("file", help="protocol description to check")
    check.add_argument("--max-bound", type=_at_least(1), default=DEFAULT_MAX_BOUND, metavar="N",
                       help="largest queue bound to try (default %(default)s)")
    check.add_argument("--max-configs", type=_at_least(1), default=None, metavar="M",
                       help="cap on explored configurations per bound "
                            f"(default {DEFAULT_MAX_CONFIGS:,}, or $KMC_MAX_CONFIGS when set)")
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.add_argument("--report-bounded-violations", action="store_true",
                       help="on an inconclusive verdict, also show unverified "
                            "safety findings from bounds that starved some send")

    sim = sub.add_parser("simulate", help="run one random interleaving")
    sim.add_argument("file", help="protocol description to run")
    sim.add_argument("--bound", type=_at_least(1), default=None, metavar="K",
                     help="queue bound (default: unbounded)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S",
                     help="PRNG seed (default %(default)s)")
    sim.add_argument("--steps", type=_at_least(0), default=DEFAULT_MAX_STEPS, metavar="N",
                     help="step budget (default %(default)s)")
    sim.add_argument("--trace", metavar="FILE", help="write the executed trace here")

    dot = sub.add_parser("export-dot", help="write one Graphviz file per role")
    dot.add_argument("file", help="protocol description to export")
    dot.add_argument("-o", "--out-dir", default=".", metavar="DIR",
                     help="output directory (default: current directory)")
    return parser


# built once per process, at import: a one-shot `kmcheck` run pays for it as
# before, a caller that runs `main` many times in one process pays once;
# parsing leaves the parser as it was
_PARSER = build_parser()


def _load(path: str):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"kmcheck: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EX_IOERR)
    except UnicodeDecodeError:
        print(f"{path}: not UTF-8 text", file=sys.stderr)
        raise SystemExit(EX_DATAERR)
    try:
        return parse_system(text)
    except DslError as exc:
        for err in exc.errors:
            print(f"{path}:{err.span.line}:{err.span.column}: {err.message}",
                  file=sys.stderr)
        raise SystemExit(EX_DATAERR)


def _step_json(step) -> dict:
    return {
        "role": step.role,
        "peer": step.action.peer,
        "dir": step.action.direction.value,
        "label": step.action.label,
        "sort": step.action.sort,
    }


def _violation_json(v: Violation) -> dict:
    trace = [_step_json(s) for s in v.trace]
    if isinstance(v.kind, ProgressViolation):
        return {"kind": "progress", "role": v.kind.role, "channel": None,
                "label": None, "sort": None, "trace": trace}
    return {"kind": "eventual_reception", "role": None,
            "channel": {"from": v.kind.sender, "to": v.kind.receiver},
            "label": v.kind.label, "sort": v.kind.sort, "trace": trace}


# each kind of verdict: its name in reports, and the exit code of `check`
_VERDICTS = {Safe: ("safe", 0), Unsafe: ("unsafe", 1), Inconclusive: ("inconclusive", 2)}


def _check_json(verdict, stats: CheckStats, max_bound: int) -> dict:
    return {
        "schema": 1,
        "verdict": _VERDICTS[type(verdict)][0],
        "k": getattr(verdict, "k", None),
        "max_bound": max_bound,
        "violations": [_violation_json(v) for v in getattr(verdict, "violations", ())],
        "stats": {
            "configurations": stats.configurations,
            "edges": stats.edges,
            "bounds_tried": list(stats.bounds_tried),
            "elapsed_ms": stats.elapsed_ms,
        },
    }


def _describe(kind) -> str:
    if isinstance(kind, ProgressViolation):
        return f"progress: role {kind.role} can be stuck receiving at state {kind.state}"
    return (f"eventual reception: message {kind.label}<{kind.sort}> from "
            f"{kind.sender} can rot unread in {kind.receiver}'s queue")


def _print_violation(v: Violation, indent: str = "") -> None:
    print(f"{indent}{_describe(v.kind)}")
    print(f"{indent}  trace ({len(v.trace)} steps):")
    for i, step in enumerate(v.trace, start=1):
        print(f"{indent}    {i}. {step}")


def _run_check(args) -> int:
    max_configs = args.max_configs
    if max_configs is None:  # the environment's cap, checked as the flag is
        env = os.environ.get("KMC_MAX_CONFIGS")
        try:
            max_configs = DEFAULT_MAX_CONFIGS if env is None else _at_least(1)(env)
        except ValueError:
            print(f"kmcheck check: error: KMC_MAX_CONFIGS: invalid integer value: {env!r}",
                  file=sys.stderr)
            return EX_USAGE
        except argparse.ArgumentTypeError as exc:
            print(f"kmcheck check: error: KMC_MAX_CONFIGS: {exc}", file=sys.stderr)
            return EX_USAGE

    system = _load(args.file)
    try:
        outcome = check_kmc_detailed(
            system, args.max_bound, max_configs,
            collect_bounded=args.report_bounded_violations and not args.json)
    except ResourceExhausted as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EX_RESOURCE
    verdict, stats = outcome.verdict, outcome.stats

    if args.json:
        print(json.dumps(_check_json(verdict, stats, args.max_bound), indent=2))
    elif isinstance(verdict, Safe):
        print(f"{args.file}: safe at k={verdict.k}")
        bounds = ",".join(str(b) for b in stats.bounds_tried)
        print(f"  bounds tried {bounds}; {stats.configurations} configurations, "
              f"{stats.edges} edges, {stats.elapsed_ms} ms")
    elif isinstance(verdict, Unsafe):
        n = len(verdict.violations)
        print(f"{args.file}: unsafe at k={verdict.k} "
              f"({n} violation{'s' if n != 1 else ''})")
        for v in verdict.violations:
            _print_violation(v)
    else:
        print(f"{args.file}: inconclusive up to k={verdict.max_bound}")
        print(f"  {verdict.note}")
        for k, v in verdict.bounded:
            print(f"  unverified finding at k={k}:")
            _print_violation(v, indent="  ")
    return _VERDICTS[type(verdict)][1]


def _run_simulate(args) -> int:
    system = _load(args.file)
    result = simulate(system, args.bound, args.seed, args.steps)
    if args.trace:
        try:
            pathlib.Path(args.trace).write_text(format_trace(result.trace), encoding="utf-8")
        except OSError as exc:
            print(f"kmcheck simulate: cannot write {args.trace}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EX_IOERR
    print(f"{result.outcome.value} after {result.steps_taken} steps")
    if result.outcome is Outcome.DEADLOCKED:
        for ci, (p, q) in enumerate(system.channels):
            buf = result.final.buffers[ci]
            if buf:
                pending = ", ".join(f"{label}<{sort}>" for label, sort in buf)
                print(f"  pending {p}->{q}: {pending}")
    return {Outcome.TERMINATED: 0, Outcome.DEADLOCKED: 1,
            Outcome.BUDGET_EXHAUSTED: 2}[result.outcome]


def _run_export_dot(args) -> int:
    system = _load(args.file)
    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for role in system.roles:
            target = out_dir / f"{role}.dot"
            target.write_text(machine_to_dot(role, system.machines[role]), encoding="utf-8")
            print(str(target))
    except BrokenPipeError:
        raise  # standard output, not the directory; see `main`
    except OSError as exc:
        print(f"kmcheck export-dot: cannot write to {out_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EX_IOERR
    return 0


def _run_help(text: str) -> int:
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        # argparse drops a failed write of the help text, so it is written
        # below, where a closed standard output is caught
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            args = _PARSER.parse_args(argv)
        run = {"check": _run_check, "simulate": _run_simulate,
               "export-dot": _run_export_dot}[args.command]
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code:
            return EX_USAGE
        args, run = shown.getvalue(), _run_help  # the text in place of parsed arguments
    try:
        code = run(args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except SystemExit as exc:  # raised by _load with the right code
        return exc.code
    except BrokenPipeError:
        print("kmcheck: cannot write to standard output: Broken pipe", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # drop the buffered rest
        return EX_IOERR
    except MemoryError:
        print(f"{args.file}: out of memory", file=sys.stderr)
        return EX_RESOURCE
    except Exception as exc:  # exit 1 would read as "unsafe"
        print(f"kmcheck: internal error: {exc!r}", file=sys.stderr)
        return EX_CRASH


if __name__ == "__main__":
    sys.exit(main())
