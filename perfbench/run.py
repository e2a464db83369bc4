"""kmcheck benchmark: time-to-verdict of `kmcheck check` on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kmcheck source tree; the package is imported from
`src/`.  Workloads are defined in `workloads.py`.  Each run starts a worker
process (`worker.py`) that generates the inputs from the seed, checks them
pass after pass for S seconds and verifies every report.  check_s and
setup_s count CPU seconds (see `spans.CLOCK`).  Set-up is sampled
SETUP_SAMPLES times: by the worker, and by processes that stop once their
inputs are on disk, after one unmeasured start that warms the bytecode cache.

The last line of output is one JSON object: with --trace 0 the end-to-end
metrics (check_s, peak_rss_mb, setup_s, verdict_ok), with
--trace 1 the per-layer metrics of `spans.py` (the spans themselves go to
.bench_work/spans-WORKLOAD-sSEED.jsonl).  The lines before it report the
host calibration loop, the failure ratio, configs_per_s and any mismatched
answer.  Exit
status 0 means every report matched its known answer.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 6
TIME_LIMIT_S = 170  # a run must end within 180 s


def start_worker(args, *extra: str) -> subprocess.Popen:
    # A fixed hash seed keeps dict and set layouts, and so timings, the same
    # from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)


def finish(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker ran out of time")
    finally:
        if proc.poll() is None:
            proc.terminate()  # lets the worker remove its inputs
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_sample(args, deadline: float) -> float:
    return finish(start_worker(args, "--setup-only"), deadline)["setup_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description="kmcheck benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kmcheck" / "__init__.py").is_file():
        print(f"perfbench: no kmcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    setup_sample(args, deadline)  # unmeasured: leaves the bytecode caches warm
    setups = [setup_sample(args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = finish(start_worker(args), deadline)
    setups.append(run["setup_s"])

    (wall0, cpu0), (wall1, cpu1) = run["calibration_s"]
    print(f"calibration: {wall0:.3f} s wall / {cpu0:.3f} s CPU before, "
          f"{wall1:.3f} s wall / {cpu1:.3f} s CPU after (fixed pure-Python loop, not gated)")
    print(f"checks: {run['attempted']} attempted, {run['failed']} failed "
          f"(fail_ratio {run['failed'] / run['attempted']:.4f}), "
          f"{run['matched']} matched the known answer")
    for problem in run["problems"]:
        print(f"mismatch: {problem}")
    correct = run["matched"] == run["attempted"] and not run["failed"]

    check_s = statistics.median(run["plain_s"])
    if args.trace:
        traced_s = statistics.median(run["traced_s"])
        units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        units.update({"semantics.bytes_per_config": "B", "trace.overhead_ratio": "ratio"})
        metrics = {name: statistics.median(p[name] for p in run["layers"])
                   for name in run["layers"][0]}
        if run["bytes_per_config"] is not None:
            metrics["semantics.bytes_per_config"] = run["bytes_per_config"]
        metrics["trace.overhead_ratio"] = traced_s / check_s
        if run["missing"]:
            print(f"trace: missing boundaries: {', '.join(run['missing'])}")
        layer_s = sum(v for name, v in metrics.items() if units[name] == "s")
        print(f"trace: {len(run['traced_s'])} traced and {len(run['plain_s'])} plain "
              f"passes; layer self times sum to {layer_s:.4f} s of the traced "
              f"pass's {traced_s:.4f} s (plain {check_s:.4f} s)")
    else:
        units = {"check_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "verdict_ok": "ratio"}
        metrics = {
            "check_s": check_s,
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "verdict_ok": run["matched"] / run["attempted"],
        }
        print(f"passes: {len(run['plain_s'])}; CPU seconds "
              f"{', '.join(f'{s:.3f}' for s in run['plain_s'])}; wall seconds "
              f"{', '.join(f'{s:.3f}' for s in run['wall_s'])}")
        # configurations / check_s: the inputs are fixed, so this repeats
        # check_s and is printed rather than reported as a metric of its own
        print(f"configs_per_s: {run['configurations'] / check_s:.1f} "
              f"({run['configurations']} configurations a pass)")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C (not SystemExit, which `kmcheck.cli.main`
    # catches), so a terminated run still stops its worker
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
