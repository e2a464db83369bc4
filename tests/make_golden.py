"""Regenerate the frozen files under tests/golden.

Run from the repository root:

    python tests/make_golden.py

`oracle.json` holds the brute-force reference's verdicts, graph sizes and
witness depths.  `reports.json` holds what `kmcheck check` prints for every
fixture, with timings scrubbed, so the byte-stability of reports is tested.
The tests compare against the frozen files, never against a live oracle run
or an earlier checkout, so expected values only change when this script is
re-run on purpose.
"""
from __future__ import annotations

import io
import json
import pathlib
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from kmcheck import cli
from kmcheck.dsl import parse_system

import oracle

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden" / "oracle.json"
REPORTS = HERE / "golden" / "reports.json"

PIN_MAX_BOUND = 4

# (fixture, bounds) pairs whose reachable-graph sizes get pinned as well
GRAPH_PINS = {
    "handshake.kmc": (1,),
    "solo.kmc": (1,),
    "fib.kmc": (1, 2),
    "flood.kmc": (1, 2, 3),
    "prefetch.kmc": (2,),
}


# the flags of each pinned `kmcheck check` run
REPORT_MODES = {"json": ["--json"], "plain": [], "bounded": ["--report-bounded-violations"]}


def _scrub(text: str, path: pathlib.Path) -> str:
    """`text` with its timings zeroed and the fixture's path cut to its name."""
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    text = re.sub(r"\b\d+ ms$", "0 ms", text, flags=re.M)
    return text.replace(str(path), path.name)


def check_reports() -> dict:
    """fixture name -> mode -> the exit code, stdout and stderr of
    `kmcheck check` on the fixture with the mode's flags, scrubbed."""
    reports: dict = {}
    for path in sorted(FIXTURES.glob("*.kmc")):
        for mode, flags in REPORT_MODES.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["check", str(path), *flags])
            reports.setdefault(path.name, {})[mode] = {
                "exit": code,
                "stdout": _scrub(out.getvalue(), path),
                "stderr": _scrub(err.getvalue(), path),
            }
    return reports


def main() -> None:
    golden: dict = {
        "note": "frozen output of tests/make_golden.py; rerun that script to refresh",
        "max_bound": PIN_MAX_BOUND,
        "verdicts": {},
        "graphs": {},
        "depths": {},
    }
    for path in sorted(FIXTURES.glob("*.kmc")):
        system = parse_system(path.read_text())
        verdict = oracle.oracle_verdict(system, PIN_MAX_BOUND)
        verdict["progress"] = [list(t) for t in verdict["progress"]]
        verdict["er"] = [list(t) for t in verdict["er"]]
        golden["verdicts"][path.name] = verdict
        if path.name in GRAPH_PINS:
            golden["graphs"][path.name] = {
                str(k): list(oracle.graph_counts(system, k))
                for k in GRAPH_PINS[path.name]}

    bug = parse_system((FIXTURES / "fib_progress_bug.kmc").read_text())
    golden["depths"]["fib_progress_bug.kmc"] = {
        "stuck_m": oracle.min_stuck_depth(bug, 1, "m")}
    rot = parse_system((FIXTURES / "fib_reception_bug.kmc").read_text())
    golden["depths"]["fib_reception_bug.kmc"] = {
        "rotten": oracle.min_rotten_depth(rot, 1)}

    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    for name, v in golden["verdicts"].items():
        print(f"  {name}: {v['class']} k={v['k']}")

    REPORTS.write_text(json.dumps({
        "note": "frozen output of tests/make_golden.py; rerun that script to refresh",
        "reports": check_reports(),
    }, indent=2) + "\n")
    print(f"wrote {REPORTS}")


if __name__ == "__main__":
    main()
