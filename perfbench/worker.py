"""One measured run of one workload, in a process of its own.

Started by `run.py`.  The process generates the workload's inputs from the
seed, writes them to disk and notes when it is ready (set-up ends there).
It then runs `kmcheck check FILE --json` in-process through
`kmcheck.cli.main` on each input, pass after pass, until the time is up, and
checks every report against the input's known answer.  With --trace 1 the
passes alternate between plain and traced ones (see `spans.py`).  The last
line of standard output is a JSON object for `run.py`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import pathlib
import resource
import shutil
import signal
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kmcheck import cli  # noqa: E402
from kmcheck.dsl import parse_system  # noqa: E402
from kmcheck.model import Action, Direction  # noqa: E402
from kmcheck.semantics import Step  # noqa: E402
from kmcheck.simulator import ReplayError, replay  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
CALIBRATION_LOOPS = 5_000_000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop: a gauge of the
    host's speed, and of the time the host gave to others."""
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - wall, time.process_time() - cpu


def run_pass(cases, paths, tracer=None):
    """Check every input once; returns (CPU seconds, [(case, exit code, stdout)])."""
    seconds, outcomes = 0.0, []
    for case, path in zip(cases, paths):
        argv = ["check", str(path), "--json", "--max-bound", str(case.max_bound)]
        out = io.StringIO()
        span = None
        if tracer is not None:
            tracer.call += 1
            span = tracer.begin(spans.CLI_SPAN)
        started = spans.CLOCK()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed check call, not a crashed run
            code = exc
        finally:
            seconds += spans.CLOCK() - started
            if span is not None:
                tracer.end(span)
        outcomes.append((case, code, out.getvalue()))
    return seconds, outcomes


def _steps(trace: list[dict]) -> tuple[Step, ...]:
    return tuple(
        Step(s["role"], Action(s["peer"], Direction(s["dir"]), s["label"], s["sort"]))
        for s in trace)


def verify(case, code, stdout: str, system) -> str | None:
    """Why the outcome differs from the known answer, or None if it matches."""
    want = case.expected
    if code != want.exit_code:
        return f"exit code {code!r}, expected {want.exit_code}"
    try:
        report = json.loads(stdout)
        got = (report["verdict"], report["k"], report["stats"]["configurations"],
               len(report["violations"]))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    expected = (want.verdict, want.k, want.configurations, want.violations)
    if got != expected:
        return f"(verdict, k, configurations, violations) = {got}, expected {expected}"
    for v in report["violations"]:
        try:
            replay(system, _steps(v["trace"]), want.k)
        except (ReplayError, KeyError, ValueError) as exc:
            return f"violation trace does not replay under k={want.k}: {exc}"
    return None


class Tally:
    """Check calls attempted, failed (no exit code 0, 1 or 2) and matching
    their known answer, with the first few mismatches."""

    def __init__(self):
        self.attempted = self.failed = self.matched = 0
        self.problems: list[str] = []

    def add(self, outcomes, systems) -> int:
        """Record a pass's outcomes; returns the configurations it reported."""
        configurations = 0
        for case, code, stdout in outcomes:
            self.attempted += 1
            if not isinstance(code, int) or code not in (0, 1, 2):
                self.failed += 1
            problem = verify(case, code, stdout, systems.get(case.name))
            if problem is None:
                self.matched += 1
                configurations += json.loads(stdout)["stats"]["configurations"]
            elif len(self.problems) < 5:
                self.problems.append(f"{case.name}: {problem}")
        return configurations


def measure(workload: str, seed: int, cases, paths, seconds: float,
            traced: bool) -> dict:
    calibration = [calibrate()]
    # parsed once for replaying violation traces; the checks parse their own
    systems = {c.name: parse_system(c.text) for c in cases if c.expected.violations}
    tally = Tally()
    tracer = spans.Tracer() if traced else None
    plain_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    configurations = 0
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same collector state
        started = time.perf_counter()
        if traced and len(traced_s) < len(plain_s):
            first = len(tracer.spans)
            tracer.size_graphs = not traced_s  # graph sizes from the first traced pass
            tracer.install()
            try:
                elapsed, outcomes = run_pass(cases, paths, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(elapsed - tracer.sizing_s(first))
            layers.append(spans.layer_metrics(tracer, first))
        else:
            elapsed, outcomes = run_pass(cases, paths)
            plain_s.append(elapsed)
        walls.append(time.perf_counter() - started)
        configurations = tally.add(outcomes, systems)
        # stop once both kinds have a pass and another would overrun
        done = plain_s and (traced_s or not traced)
        if done and time.perf_counter() + max(walls[-2:]) > deadline:
            break
    calibration.append(calibrate())
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "matched": tally.matched,
        "problems": tally.problems,
        "plain_s": plain_s,
        "wall_s": walls,
        "configurations": configurations,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result.update(traced_s=traced_s, layers=layers, missing=tracer.missing,
                      bytes_per_config=spans.bytes_per_config(tracer))
        tracer.write(WORK_DIR / f"spans-{workload}-s{seed}.jsonl", calibration)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are on disk (a set-up sample)")
    args = ap.parse_args()

    cases = workloads.make_workload(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    inputs = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                           dir=WORK_DIR))
    try:
        paths = [inputs / f"{case.name}.kmc" for case in cases]
        for case, path in zip(cases, paths):
            path.write_text(case.text)
        setup_s = time.process_time()  # CPU seconds since the process started
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(args.workload, args.seed, cases, paths,
                                  args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C (not SystemExit, which `kmcheck.cli.main`
    # catches), so a terminated run still removes its inputs
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
