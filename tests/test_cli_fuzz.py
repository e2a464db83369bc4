"""Seeded fuzzing of the `kmcheck` command line: whatever the input, flags
or environment, `cli.main` returns an exit code that the README's table
documents and no Python traceback reaches stderr.

Inputs: random bytes, token soups, mutated fixtures, deep `rec` and brace
nests, out-of-range `--max-bound`/`--max-configs` values, odd
`KMC_MAX_CONFIGS` values, odd `simulate` and `export-dot` flags, unknown
subcommands and help requests.  Every call runs in-process through
`cli.main` with small caps, so the whole file stays within a few CPU seconds.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import time

import pytest

from kmcheck import cli

from conftest import FIXTURES


def _readme_exit_codes() -> set[int]:
    """The codes in the README's exit-code table."""
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"^### Exit codes\n(.*?)^#", readme, re.M | re.S)
    return {int(code) for code in re.findall(r"^\| *(\d+) *\|", table, re.M)}


README_EXIT_CODES = _readme_exit_codes()
TOKENS = ("role", "rec", "end", "or", "{", "}", ";", ":", ".", "!", "?", "<", ">",
          "p", "q", "r", "t", "x", "ack", "int", "//", "\n", " ", "\t", "é", "0", "_")
SMALL_CAPS = ["--max-bound", "3", "--max-configs", "2000"]


def _run(*argv: str) -> tuple[int, str]:
    """Exit code and stderr of `kmcheck ARGV...`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _assert_documented(code, stderr: str) -> None:
    assert code in README_EXIT_CODES, (code, stderr)
    assert code != cli.EX_CRASH, stderr  # an internal error is a bug
    assert "Traceback" not in stderr, stderr


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(len(chars) + 1)
        kind = rng.randrange(4)
        if kind == 0 and i < len(chars):
            del chars[i]
        elif kind == 1:
            chars.insert(i, rng.choice(TOKENS))
        elif kind == 2 and i < len(chars):
            j = rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
        else:
            start = rng.randrange(len(chars) + 1)
            chars[i:i] = chars[start:start + rng.randint(1, 12)]
    return "".join(chars)


def _inputs(rng: random.Random):
    """(name, bytes) pairs of every kind."""
    fixtures = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.kmc"))]
    for i in range(100):
        yield f"bytes{i}", rng.randbytes(rng.randint(0, 200))
    for i in range(200):
        soup = "".join(rng.choice(TOKENS) + rng.choice(("", " "))
                       for _ in range(rng.randint(1, 60)))
        yield f"soup{i}", (rng.choice(("", "role p: ")) + soup).encode()
    for i in range(400):
        yield f"mutant{i}", _mutate(rng, rng.choice(fixtures)).encode()
    for depth in (1, 8, 40, 120):
        binders = "".join(f"rec t{d}. " for d in range(depth))
        yield f"rec{depth}", (f"role p: {binders}q!x; t{rng.randrange(depth)}\n"
                              f"role q: rec s. p?x; s\n").encode()
    for depth in (50, 3000):  # unbalanced and balanced brace nests
        yield f"braces{depth}", ("role p: " + "{" * depth + "q!x; end" + "}" * depth).encode()
        yield f"open{depth}", ("role p: " + "rec t. {" * depth).encode()


def test_random_inputs_exit_with_documented_codes(tmp_path):
    rng = random.Random(20261018)
    started = time.process_time()
    seen = set()
    for name, data in _inputs(rng):
        path = tmp_path / f"{name}.kmc"
        path.write_bytes(data)
        code, stderr = _run("check", str(path), *SMALL_CAPS,
                            *rng.choice(([], ["--json"], ["--report-bounded-violations"])))
        _assert_documented(code, stderr)
        seen.add(code)
    # the inputs reach verdicts as well as parse errors
    assert {0, 65}.issubset(seen) and seen & {1, 2}, seen
    assert time.process_time() - started < 5.0


CHECK_FLAGS = [
    ["--max-bound", "0"], ["--max-bound", "-1"], ["--max-bound", "x"],
    ["--max-bound", ""], ["--max-bound", "1e3"], ["--max-bound", "2" * 30, "--max-configs", "50"],
    ["--max-configs", "0"], ["--max-configs", "-5"], ["--max-configs", "1"],
    ["--max-configs", "9" * 40], ["--max-configs", "0x10"], ["--max-bound"],
    ["--bogus"], ["--json", "--json"],
]
# command lines beyond `check`: "FILE" stands for the input and "OUT" for a
# directory under the test's tmp_path
OTHER_ARGVS = [
    *(["simulate", "FILE", *flags] for flags in (
        ["--bound", "0"], ["--bound", "-1"], ["--bound", "x"], ["--bound", ""],
        ["--bound", "9" * 40], ["--seed", "-5"], ["--seed", "9" * 40], ["--seed", "x"],
        ["--steps", "0"], ["--steps", "-1"], ["--steps", "1000"], ["--steps", "1e3"],
        ["--steps"], ["--trace"], ["--bogus"])),
    ["export-dot", "FILE", "-o"], ["export-dot", "FILE", "-o", "OUT"], ["export-dot"],
    ["bogus"], ["bogus", "FILE"], [], ["-h"], ["--help"], ["check", "-h"],
    ["simulate", "--help"], ["export-dot", "-h"],
]


@pytest.mark.parametrize("argv", [
    *(pytest.param(["check", "FILE", *flags], id=repr(flags)) for flags in CHECK_FLAGS),
    *(pytest.param(argv, id=repr(argv)) for argv in OTHER_ARGVS),
])
def test_out_of_range_flags_exit_with_documented_codes(argv, tmp_path):
    # `simulate` runs a system that terminates and one that deadlocks at once
    names = ("solo.kmc", "orphan.kmc") if argv[:1] == ["simulate"] else ("fib.kmc", "flood.kmc")
    for name in names:
        fill = {"FILE": str(FIXTURES / name), "OUT": str(tmp_path / "out")}
        _assert_documented(*_run(*(fill.get(arg, arg) for arg in argv)))


@pytest.mark.parametrize("value", [
    "", " ", "0", "-3", "1", " 7 ", "1e3", "0x10", "abc", "٣", "9" * 40, "1_000",
    "nan", "+5",
], ids=repr)
def test_odd_config_caps_from_environment_exit_with_documented_codes(monkeypatch, value):
    monkeypatch.setenv("KMC_MAX_CONFIGS", value)
    for path in (FIXTURES / "fib.kmc", FIXTURES / "flood.kmc"):
        _assert_documented(*_run("check", str(path), "--max-bound", "4"))
