"""Regenerate the frozen files under tests/golden.

Run from the repository root:

    python tests/make_golden.py

`oracle.json` holds the brute-force reference's verdicts, graph sizes and
witness depths.  `reports.json` holds what `kmcheck check` prints for every
fixture, for a small member of each `graphs` benchmark family, for one
malformed input per kind of DSL error and for a seeded corpus of single-edit
mutants of the fixtures, with timings scrubbed, so the byte-stability of
reports and error messages is tested.
The tests compare against the frozen files, never against a live oracle run
or an earlier checkout, so expected values only change when this script is
re-run on purpose.
"""
from __future__ import annotations

import io
import json
import pathlib
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))

from kmcheck import cli
from kmcheck.dsl import parse_system

import oracle
import workloads

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

# small members of the `graphs` benchmark families whose reports are pinned
# too, as (input name, family, family arguments, extra flags)
FAMILY_REPORTS = [
    ("pipeline5", workloads.pipeline, (5,), []),
    ("fanout4", workloads.fanout, (4,), []),
    ("burst-unsafe3x2", workloads.burst_unsafe, (3, 2), []),
    ("flooded-pipeline4", workloads.flooded_pipeline, (4, 3), ["--max-bound", "3"]),
]
FAMILY_SEED = 5

# one small input per kind of DSL error, whose exit code and stderr are
# pinned (plain mode only: a malformed input is rejected before any flag
# matters), as input name -> text
MALFORMED = {
    "malformed-lexical": "role a: b!x; end $\n",
    "malformed-syntax": "role a: b!x end\n",
    "malformed-duplicate-role": "role a: end\nrole a: end\n",
    "malformed-role-name": "role \u00e9: end\n",
    "malformed-no-roles": "// nothing here\n",
    "malformed-unbound": "role a: b!x; t\nrole b: a?x; end\n",
    "malformed-unguarded": "role a: rec t. t\nrole b: end\n",
    "malformed-mixed-choice": "role a: {b!x; end} or {b?y; end}\nrole b: a?x; end\n",
    "malformed-duplicate-branch": "role a: {b!x; end} or {b!x<int>; end}\nrole b: a?x; end\n",
    "malformed-self": "role a: a!x; end\n",
    "malformed-unknown-peer": "role a: c!x; end\n",
    "malformed-several": ("role a: a!x; c!y; t\nrole a: end\n"
                          "role b: {a!x; end} or {a?x; end}\n"),
    # edge cases of reading an action: a word that starts with a numeral
    # that is no letter, or is made only of such numerals, a keyword in each
    # slot of an otherwise whole action, an action split over lines or by a
    # comment, a stray character inside an action, a final action without
    # its ';', and an action cut short before the next declaration
    "malformed-numeral-word": "role a: \u216bb!x; end\n",
    "malformed-numerals-only": "role a: \u216b\u00b2 end\n",
    "malformed-keyword-label": "role a: b!end; end\nrole b: a?x; end\n",
    "malformed-keyword-sort": "role a: b!x<rec>; end\nrole b: a?x; end\n",
    "malformed-keyword-peer": "role a: end!x; end\nrole b: end\n",
    "malformed-split-newline": "role a: b\n  !x<int>\n ; t\nrole b: a?x<int>; end\n",
    "malformed-split-comment": "role a: a! // the label follows\nx; end\n",
    "malformed-blanks-in-action": "role a: c ! x < int > ; end\n",
    "malformed-stray-in-action": "role a: b!x<$int>; end\nrole b: a?x<int>; end\n",
    "malformed-unterminated-action": "role a: b!x<int>",
    "malformed-no-label": "role a: {b!\nrole b: end end\n",
    "malformed-no-direction": "role a: {b\nrole b: end end\n",
}

# single-edit mutants of the fixtures, whose `kmcheck check --max-bound 2`
# exit code and stderr are pinned: each deletes one character or inserts one
# of `MUTANT_INSERTS` at a seeded position
MUTANT_COUNT = 300
MUTANT_SEED = 16
MUTANT_FLAGS = ["--max-bound", "2"]
MUTANT_INSERTS = (list("!?;<>{}.:") + [f" {kw} " for kw in ("role", "rec", "end", "or")]
                  + ["\u216b", "$", "\n", "// comment\n"])


def mutants() -> dict[str, str]:
    """input name -> text of each mutant, the name saying which fixture, at
    which offset, and whether a character was deleted or which insert."""
    fixtures = [(path.stem, path.read_text(encoding="utf-8"))
                for path in sorted(FIXTURES.glob("*.kmc"))]
    rng = random.Random(MUTANT_SEED)
    out: dict[str, str] = {}
    for n in range(MUTANT_COUNT):
        stem, text = rng.choice(fixtures)
        if rng.random() < 0.5:
            at = rng.randrange(len(text))
            edit, mutant = "del", text[:at] + text[at + 1:]
        else:
            at = rng.randrange(len(text) + 1)
            insert = rng.randrange(len(MUTANT_INSERTS))
            edit, mutant = f"ins{insert}", text[:at] + MUTANT_INSERTS[insert] + text[at:]
        out[f"mutant{n:03d}-{stem}-{edit}-{at}"] = mutant
    return out


def _scrub(text: str, path: pathlib.Path) -> str:
    """`text` with its timings zeroed and the fixture's path cut to its name."""
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    text = re.sub(r"\b\d+ ms$", "0 ms", text, flags=re.M)
    return text.replace(str(path), path.name)


def _report(path: pathlib.Path, flags: list[str]) -> dict:
    """The exit code, stdout and stderr of `kmcheck check` on `path` with
    `flags`, scrubbed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["check", str(path), *flags])
    return {"exit": code,
            "stdout": _scrub(out.getvalue(), path),
            "stderr": _scrub(err.getvalue(), path)}


def check_reports() -> dict:
    """input name -> mode -> the scrubbed `kmcheck check` report of the
    input with the mode's flags, for every fixture and every family member
    of `FAMILY_REPORTS` and every input of `MALFORMED` and of `mutants()`
    (each written to a temporary `<name>.kmc` first); a mutant's report
    leaves out stdout."""
    reports: dict = {}
    for path in sorted(FIXTURES.glob("*.kmc")):
        reports[path.name] = {mode: _report(path, flags)
                              for mode, flags in REPORT_MODES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, family, args, extra in FAMILY_REPORTS:
            case = workloads.make_case(name, family, args, 0, FAMILY_SEED)
            path = pathlib.Path(tmp) / f"{name}.kmc"
            path.write_text(case.text)
            reports[path.name] = {mode: _report(path, flags + extra)
                                  for mode, flags in REPORT_MODES.items()}
        for name, text in MALFORMED.items():
            path = pathlib.Path(tmp) / f"{name}.kmc"
            path.write_text(text, encoding="utf-8")
            reports[path.name] = {"plain": _report(path, [])}
        for name, text in mutants().items():
            path = pathlib.Path(tmp) / f"{name}.kmc"
            path.write_text(text, encoding="utf-8")
            report = _report(path, MUTANT_FLAGS)
            del report["stdout"]
            reports[path.name] = {"bound2": report}
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
