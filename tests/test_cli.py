from __future__ import annotations

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import jsonschema
import pytest

from kmcheck import checker, cli
from kmcheck.checker import Safe, check_kmc, check_kmc_detailed
from kmcheck.cli import main
from kmcheck.dot import machine_to_dot
from kmcheck.model import Machine, System, receive, send, validate_system
from kmcheck.simulator import parse_trace, replay

from conftest import FIXTURES, fixture_system
from make_golden import REPORTS, check_reports

FIB = str(FIXTURES / "fib.kmc")
PROGRESS_BUG = str(FIXTURES / "fib_progress_bug.kmc")
RECEPTION_BUG = str(FIXTURES / "fib_reception_bug.kmc")
FLOOD = str(FIXTURES / "flood.kmc")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "verdict", "k", "max_bound", "violations", "stats"],
    "properties": {
        "schema": {"const": 1},
        "verdict": {"enum": ["safe", "unsafe", "inconclusive"]},
        "k": {"type": ["integer", "null"]},
        "max_bound": {"type": "integer"},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind", "role", "channel", "label", "sort", "trace"],
                "properties": {
                    "kind": {"enum": ["progress", "eventual_reception"]},
                    "role": {"type": ["string", "null"]},
                    "channel": {
                        "type": ["object", "null"],
                        "additionalProperties": False,
                        "required": ["from", "to"],
                        "properties": {
                            "from": {"type": "string"},
                            "to": {"type": "string"},
                        },
                    },
                    "label": {"type": ["string", "null"]},
                    "sort": {"type": ["string", "null"]},
                    "trace": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["role", "peer", "dir", "label", "sort"],
                            "properties": {
                                "role": {"type": "string"},
                                "peer": {"type": "string"},
                                "dir": {"enum": ["!", "?"]},
                                "label": {"type": "string"},
                                "sort": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
        "stats": {
            "type": "object",
            "additionalProperties": False,
            "required": ["configurations", "edges", "bounds_tried", "elapsed_ms"],
            "properties": {
                "configurations": {"type": "integer"},
                "edges": {"type": "integer"},
                "bounds_tried": {"type": "array", "items": {"type": "integer"}},
                "elapsed_ms": {"type": "integer"},
            },
        },
    },
}


def test_check_verdict_exit_codes(capsys):
    assert main(["check", FIB]) == 0
    assert main(["check", PROGRESS_BUG]) == 1
    assert main(["check", FLOOD, "--max-bound", "3"]) == 2
    out, err = capsys.readouterr()
    assert err == ""  # verdicts are success paths
    assert "safe at k=1" in out
    assert "unsafe at k=1" in out
    assert "inconclusive up to k=3" in out


def _readme_check_examples() -> list:
    """Each `$ kmcheck check ...` block in README.md, as (command, output)."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n\$ (kmcheck check [^\n]*)\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 2  # the fib and orphan examples, at least
    return [pytest.param(command, shown, id=command) for command, shown in blocks]


@pytest.mark.parametrize("command, shown", _readme_check_examples())
def test_readme_check_examples_match_the_cli(command, shown, capsys, monkeypatch):
    monkeypatch.chdir(SRC.parent)  # the examples name files from the repository root
    main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    out = re.sub(r"\b\d+ ms$", "0 ms", out, flags=re.M)
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == shown


def test_readme_library_example_runs(monkeypatch):
    monkeypatch.chdir(SRC.parent)  # the example names a file from the repository root
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    scope: dict = {}
    exec(block, scope)
    assert isinstance(scope["verdict"], Safe)
    assert scope["verdict"].k == 1


def test_check_unreadable_file(capsys):
    missing = FIXTURES / "missing.kmc"
    assert main(["check", str(missing)]) == 74
    assert capsys.readouterr().err == \
        f"kmcheck: cannot read {missing}: No such file or directory\n"


def test_check_parse_error_positions(tmp_path, capsys):
    bad = tmp_path / "bad.kmc"
    bad.write_text("role a: b!x<int>")
    assert main(["check", str(bad)]) == 65
    err = capsys.readouterr().err
    assert f"{bad}:1:17:" in err


def test_long_action_sequence_checks_safe(tmp_path, capsys):
    long = tmp_path / "long.kmc"
    sends = "; ".join(f"b!m{i}" for i in range(10_000))
    receives = "; ".join(f"a?m{i}" for i in range(10_000))
    long.write_text(f"role a: {sends}; end\nrole b: {receives}; end\n")
    assert main(["check", str(long)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"{long}: safe at k=1\n")
    assert err == ""


def test_deeply_nested_recursion_checks_safe(tmp_path, capsys):
    # 30 nested binders, then a jump back to any of them; the peer mirrors it
    def role(to: str) -> str:
        back = " or ".join(f"{{{to}j{i}; t{i}}}" for i in range(30))
        return "".join(f"rec t{i}. {to}m{i}; " for i in range(30)) + back

    nested = tmp_path / "nested.kmc"
    nested.write_text(f"role a: {role('b!')}\nrole b: {role('a?')}\n")
    assert main(["check", str(nested)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"{nested}: safe at k=1\n")
    assert "91 configurations" in out
    assert err == ""


def test_non_utf8_input_is_a_data_error(tmp_path, capsys):
    binary = tmp_path / "binary.kmc"
    binary.write_bytes(b"role a: b!x; end\n\xff\n")
    assert main(["check", str(binary)]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{binary}: not UTF-8 text\n"


def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checker, "_ms", lambda started: 0)
    for fixture in sorted(FIXTURES.glob("*.kmc")):
        marked = tmp_path / fixture.name
        marked.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        runs = []
        for path in (str(fixture), str(marked)):
            code = main(["check", path])
            out, err = capsys.readouterr()
            runs.append((code, out.replace(path, "FILE"), err.replace(path, "FILE")))
        assert runs[0] == runs[1], fixture.name


def test_usage_errors_exit_64():
    assert main(["check", FIB, "--no-such-flag"]) == 64
    assert main([]) == 64


def test_non_positive_bounds_are_usage_errors(capsys, monkeypatch):
    # a bad number is reported like every other usage error: after the
    # subcommand's usage line, naming the flag
    for argv in (["check", FIB, "--max-bound", "0"], ["check", FIB, "--max-configs", "0"],
                 ["check", FIB, "--max-bound", "x"], ["simulate", FIB, "--bound", "0"],
                 ["simulate", FIB, "--steps", "-1"]):
        assert main(argv) == 64, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: kmcheck {argv[0]} "), argv
        assert f"argument {argv[2]}: " in err, argv
        if argv[3] == "x":
            assert f"argument {argv[2]}: invalid integer value: 'x'" in err
    monkeypatch.setenv("KMC_MAX_CONFIGS", "0")
    assert main(["check", FIB]) == 64
    assert "KMC_MAX_CONFIGS" in capsys.readouterr().err


def test_in_process_calls_do_not_affect_each_other(tmp_path, capsys, monkeypatch):
    # every call parses with the one parser the module builds: no option of
    # one call may carry over into the next, in either order
    monkeypatch.setattr(checker, "_ms", lambda started: 0)
    calls = [
        ["check", FLOOD, "--no-such-flag"],
        ["check", FLOOD, "--json", "--max-bound", "1", "--report-bounded-violations"],
        ["check", FLOOD],
        ["simulate", FLOOD],
        ["export-dot", FLOOD, "-o", str(tmp_path)],
    ]

    def run(argv):
        return (main(argv), *capsys.readouterr())

    forward = [run(argv) for argv in calls]
    backward = [run(argv) for argv in reversed(calls)][::-1]
    assert [code for code, _, _ in forward] == [64, 2, 2, 2, 0]
    assert forward == backward
    assert "inconclusive up to k=10" in forward[2][1]


def _json_report(capsys, *argv):
    code = main(["check", "--json", *argv])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def test_json_reports_validate_against_schema(capsys):
    for path, expect in ((FIB, "safe"), (RECEPTION_BUG, "unsafe"), (FLOOD, "inconclusive")):
        _, out = _json_report(capsys, path, "--max-bound", "3")
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["verdict"] == expect


def test_json_progress_and_reception_payloads(capsys):
    _, out = _json_report(capsys, PROGRESS_BUG)
    report = json.loads(out)
    assert any(v["kind"] == "progress" and v["role"] == "m"
               for v in report["violations"])
    _, out = _json_report(capsys, RECEPTION_BUG)
    report = json.loads(out)
    er = [v for v in report["violations"] if v["kind"] == "eventual_reception"]
    assert er and er[0]["channel"] == {"from": "w", "to": "m"}
    assert er[0]["label"] == "result" and er[0]["sort"] == "int"
    assert all(step["dir"] in "!?" for v in er for step in v["trace"])


def test_json_output_is_stable_apart_from_timing(capsys):
    _, first = _json_report(capsys, RECEPTION_BUG)
    _, second = _json_report(capsys, RECEPTION_BUG)
    scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    assert scrub(first) == scrub(second)


def test_check_reports_match_the_frozen_ones():
    # every fixture and a small member of each `graphs` family, as --json,
    # plain and --report-bounded-violations
    assert check_reports() == json.loads(REPORTS.read_text())["reports"]


def test_config_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("KMC_MAX_CONFIGS", "10")
    assert main(["check", FIB]) == 70
    assert capsys.readouterr().err == (
        f"{FIB}: exploration at k=1 stopped after 10 configurations (cap 10)\n")
    # the cap line names the bound whose full exploration hit the cap: flood's
    # bounds 1-3 stop at a hopeless send before their 10th configuration
    assert main(["check", FLOOD]) == 70
    assert capsys.readouterr().err == (
        f"{FLOOD}: exploration at k=4 stopped after 10 configurations (cap 10)\n")
    # an explicit flag wins over the environment
    assert main(["check", FIB, "--max-configs", "1000000"]) == 0
    monkeypatch.setenv("KMC_MAX_CONFIGS", "lots")
    assert main(["check", FIB]) == 64


def test_check_help_names_the_configuration_cap_default(capsys):
    assert main(["check", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
    assert "(default 1,000,000, or $KMC_MAX_CONFIGS when set)" in text
    assert "None" not in text


@pytest.mark.parametrize("exc, code, message", [
    (MemoryError(), 70, f"{FIB}: out of memory\n"),
    (RuntimeError("boom\nagain"), 71,
     "kmcheck: internal error: RuntimeError('boom\\nagain')\n"),
], ids=["memory", "crash"])
def test_crash_exits_with_a_code_that_is_not_a_verdict(capsys, monkeypatch, exc, code, message):
    def crash(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "check_kmc_detailed", crash)
    assert main(["check", FIB]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message  # one line, no traceback


def test_report_bounded_violations_flag(capsys):
    assert main(["check", FLOOD, "--max-bound", "2"]) == 2
    plain = capsys.readouterr().out
    assert "unverified" not in plain
    assert main(["check", FLOOD, "--max-bound", "2", "--report-bounded-violations"]) == 2
    verbose = capsys.readouterr().out
    assert "unverified finding at k=1" in verbose
    assert "rot unread" in verbose


def test_json_reports_do_not_collect_bounded_findings(capsys, monkeypatch):
    # schema 1 has no field for them, so `--json` does not ask for them
    seen = []

    def spy(*args, collect_bounded):
        seen.append(collect_bounded)
        return check_kmc_detailed(*args, collect_bounded=collect_bounded)
    monkeypatch.setattr(cli, "check_kmc_detailed", spy)
    flags = ["check", FLOOD, "--max-bound", "2", "--report-bounded-violations"]
    assert main(flags + ["--json"]) == 2
    assert main(flags) == 2
    capsys.readouterr()
    assert seen == [False, True]


def test_simulate_outcomes_and_exit_codes(capsys):
    assert main(["simulate", str(FIXTURES / "handshake.kmc"), "--bound", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("terminated after 2 steps")
    assert err == ""
    assert main(["simulate", RECEPTION_BUG, "--bound", "1", "--seed", "0"]) == 1
    out, _ = capsys.readouterr()
    assert "deadlocked after" in out
    assert "pending w->m: result<int>" in out
    assert main(["simulate", FLOOD, "--steps", "50"]) == 2
    out, _ = capsys.readouterr()
    assert "budget exhausted after 50 steps" in out


def test_simulate_writes_replayable_trace(tmp_path, capsys):
    target = tmp_path / "run.trace"
    assert main(["simulate", FIB, "--bound", "1", "--seed", "4",
                 "--trace", str(target)]) == 0
    capsys.readouterr()
    trace = parse_trace(target.read_text())
    assert trace  # non-trivial run
    replay(fixture_system("fib.kmc"), trace, 1)  # must not raise


def test_export_dot_writes_one_file_per_role(tmp_path, capsys):
    assert main(["export-dot", FIB, "-o", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    names = sorted(p.name for p in tmp_path.glob("*.dot"))
    assert names == ["m.dot", "u.dot", "w.dot"]
    u = (tmp_path / "u.dot").read_text()
    assert u.startswith("digraph u {")
    assert "__start [shape=point];" in u
    assert 'label="m!compute<int>"' in u
    first = {p.name: p.read_bytes() for p in tmp_path.glob("*.dot")}
    assert main(["export-dot", FIB, "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.dot")} == first


def test_export_dot_quotes_roles_named_like_dot_keywords(tmp_path, capsys):
    spec = tmp_path / "keywords.kmc"
    spec.write_text("role node: Graph!x; end\nrole Graph: node?x; end\n")
    assert main(["export-dot", str(spec), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "node.dot").read_text().startswith('digraph "node" {\n')
    assert (tmp_path / "Graph.dot").read_text().startswith('digraph "Graph" {\n')


def test_dot_labels_escape_quotes_and_backslashes():
    # the DSL's identifiers hold neither character; a hand-built machine may
    label, sort = 'say"hi', "a\\b"
    sender = Machine(frozenset({0, 1}), 0, ((0, send("b", label, sort), 1),))
    receiver = Machine(frozenset({0, 1}), 0, ((0, receive("a", label, sort), 1),))
    system = System(("a", "b"), {"a": sender, "b": receiver})
    assert not validate_system(system) and check_kmc(system) == Safe(1)
    assert '  s0 -> s1 [label="b!say\\"hi<a\\\\b>"];\n' in machine_to_dot("a", sender)


def test_export_dot_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["export-dot", FIB, "-o", str(blocker / "sub")]) == 74
    assert "cannot write" in capsys.readouterr().err
    # nor can a trace be written there
    trace = blocker / "run.trace"
    assert main(["simulate", FIB, "--trace", str(trace)]) == 74
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"kmcheck simulate: cannot write {trace}: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["check", FIB, "--json"], ["simulate", FIB], ["export-dot", FIB, "-o", "."],
    ["--help"], ["check", "--help"],
], ids=["check", "simulate", "export-dot", "help", "check-help"])
def test_a_closed_standard_output_is_an_io_error(tmp_path, argv, unbuffered):
    # buffered, the output fails when it is flushed; unbuffered, on the first print
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # every write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "kmcheck.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              cwd=tmp_path, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 74
    assert proc.stderr == "kmcheck: cannot write to standard output: Broken pipe\n"


def test_written_files_are_utf8_whatever_the_locale(tmp_path):
    spec = tmp_path / "cafe.kmc"
    spec.write_text("role a: b!café<unit>; end\nrole b: a?café<unit>; end\n",
                    encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(SRC)}
    for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
        env.pop(name, None)
    trace = tmp_path / "run.trace"
    for args in (["simulate", str(spec), "--trace", str(trace)],
                 ["export-dot", str(spec), "-o", str(tmp_path)]):
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "kmcheck.cli", *args],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert trace.read_text(encoding="utf-8") == "a\tb\t!\tcafé\tunit\nb\ta\t?\tcafé\tunit\n"
    assert "café" in (tmp_path / "a.dot").read_text(encoding="utf-8")


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kmcheck.cli", "check", FIB],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "safe at k=1" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["bogus"], ["check", FIB, "--no-such-flag"], ["--help"], ["check", "--help"],
], ids=["usage-error", "subcommand-usage-error", "help", "subcommand-help"])
def test_an_in_process_call_matches_the_command(argv, capsys, monkeypatch):
    # what `main` returns and prints is what `python -m kmcheck.cli` exits
    # with and prints; argparse wraps to the terminal width, so fix it for both
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    out, err = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "kmcheck.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
