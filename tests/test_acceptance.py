"""Acceptance gate for the toolkit.

One test per advertised capability, run in order.  Each prints a
`[criterion N] ...: PASS` (or FAIL) line on the terminal even under pytest's
capture, so a full run doubles as a human-readable acceptance report.
"""
from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager

from kmcheck.checker import (
    EventualReceptionViolation,
    Inconclusive,
    ProgressViolation,
    Safe,
    Unsafe,
    check_kmc_detailed,
)
from kmcheck.cli import main
from kmcheck.dsl import parse_system
from kmcheck.semantics import build_bounded_graph
from kmcheck.simulator import Outcome, replay, simulate

from conftest import FIXTURES, fixture_system
from generators import random_roundtrip_system, random_system
from oracle import Blowup, find_isomorphism, local_fingerprint, oracle_verdict, render_system


@contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] {name}: PASS")


def _classify(verdict) -> tuple[str, int | None]:
    if isinstance(verdict, Safe):
        return "safe", verdict.k
    if isinstance(verdict, Unsafe):
        return "unsafe", verdict.k
    return "inconclusive", None


def test_criterion_1_finds_least_bound_quickly(capsys, golden):
    with criterion(capsys, 1, "least safe bound for the worker protocol"):
        outcome = check_kmc_detailed(fixture_system("fib.kmc"))
        assert isinstance(outcome.verdict, Safe)
        assert outcome.verdict.k == golden["verdicts"]["fib.kmc"]["k"]
        assert outcome.stats.elapsed_ms < 1000


def test_criterion_2_progress_counterexample_replays(capsys, golden):
    with criterion(capsys, 2, "shortest replayable progress counterexample"):
        system = fixture_system("fib_progress_bug.kmc")
        entry = golden["verdicts"]["fib_progress_bug.kmc"]
        verdict = check_kmc_detailed(system).verdict
        assert isinstance(verdict, Unsafe) and verdict.k == entry["k"]
        stuck = {(v.kind.role, v.kind.state) for v in verdict.violations
                 if isinstance(v.kind, ProgressViolation)}
        assert stuck == {tuple(p) for p in entry["progress"]}
        v = min((v for v in verdict.violations
                 if isinstance(v.kind, ProgressViolation) and v.kind.role == "m"),
                key=lambda v: len(v.trace))
        assert len(v.trace) == golden["depths"]["fib_progress_bug.kmc"]["stuck_m"]
        final = replay(system, v.trace, verdict.k)
        assert final.locals[system.role_index["m"]] == v.kind.state


def test_criterion_3_reception_counterexample_replays(capsys, golden):
    with criterion(capsys, 3, "shortest replayable unread-message counterexample"):
        system = fixture_system("fib_reception_bug.kmc")
        entry = golden["verdicts"]["fib_reception_bug.kmc"]
        verdict = check_kmc_detailed(system).verdict
        assert isinstance(verdict, Unsafe) and verdict.k == entry["k"]
        rotten = [v for v in verdict.violations
                  if isinstance(v.kind, EventualReceptionViolation)]
        assert {(v.kind.sender, v.kind.receiver, v.kind.label, v.kind.sort)
                for v in rotten} == {tuple(e) for e in entry["er"]}
        v = min(rotten, key=lambda v: len(v.trace))
        assert len(v.trace) == golden["depths"]["fib_reception_bug.kmc"]["rotten"]
        final = replay(system, v.trace, verdict.k)
        queue = final.buffers[system.channel_index[(v.kind.sender, v.kind.receiver)]]
        assert queue and queue[0] == (v.kind.label, v.kind.sort)


def test_criterion_4_fixture_verdicts_match_reference(capsys, golden):
    with criterion(capsys, 4, "every fixture verdict matches the brute-force oracle"):
        for name, entry in golden["verdicts"].items():
            verdict = check_kmc_detailed(
                fixture_system(name), max_bound=golden["max_bound"]).verdict
            assert _classify(verdict) == (entry["class"], entry["k"]), name


def test_criterion_5_inconclusive_names_the_bound(capsys, golden):
    with criterion(capsys, 5, "bound exhaustion is reported, not mislabelled"):
        system = fixture_system("flood.kmc")
        for n in range(1, golden["max_bound"] + 1):
            verdict = check_kmc_detailed(system, max_bound=n).verdict
            assert isinstance(verdict, Inconclusive)
            assert verdict.max_bound == n
            assert f"up to {n}" in verdict.note


def _agrees_with_oracle(system) -> bool:
    """Whether the oracle settled `system` within its cap (False when it
    blew up); asserts the checker's verdict agrees with it."""
    try:
        expected = oracle_verdict(system, max_bound=3, cap=1500)
    except Blowup:
        return False
    verdict = check_kmc_detailed(system, max_bound=3).verdict
    assert _classify(verdict) == (expected["class"], expected["k"]), \
        render_system(system)
    if isinstance(verdict, Unsafe):
        stuck = {(v.kind.role, v.kind.state) for v in verdict.violations
                 if isinstance(v.kind, ProgressViolation)}
        assert stuck == {tuple(p) for p in expected["progress"]}, \
            render_system(system)
        channels = {(v.kind.sender, v.kind.receiver)
                    for v in verdict.violations
                    if isinstance(v.kind, EventualReceptionViolation)}
        assert channels == {(s, r) for s, r, _, _ in expected["er"]}, \
            render_system(system)
    return True


def test_criterion_6_random_systems_agree_with_oracle(capsys):
    with criterion(capsys, 6, "500 random systems agree with the oracle"):
        rng = random.Random(20260822)
        started = time.process_time()  # CPU seconds, unlike wall time immune to a busy host
        # 200 draws of 2-3 roles with at most 4 states, then 300 of up to 4
        # roles with up to 6 states
        for count, shape in ((200, {}), (300, {"max_roles": 4, "max_states": 6})):
            kept = draws = 0
            while kept < count:
                draws += 1
                assert draws < 15 * count, "generator keeps producing intractable systems"
                kept += _agrees_with_oracle(random_system(rng, **shape))
        assert time.process_time() - started < 10.0


def test_criterion_7_local_behaviour_stable_past_least_bound(capsys, golden):
    with criterion(capsys, 7, "raising the bound past k* changes no local behaviour"):
        for name, entry in golden["verdicts"].items():
            if entry["class"] != "safe":
                continue
            system = fixture_system(name)
            at_k = build_bounded_graph(system, entry["k"])
            above = build_bounded_graph(system, entry["k"] + 1)
            for role in system.roles:
                assert local_fingerprint(at_k, role) == \
                    local_fingerprint(above, role), (name, role)


def test_criterion_8_random_runs_corroborate_verdicts(capsys, golden):
    with criterion(capsys, 8, "random executions corroborate the verdicts"):
        for name, entry in golden["verdicts"].items():
            if entry["class"] != "safe":
                continue
            system = fixture_system(name)
            for seed in range(1000):
                result = simulate(system, entry["k"], seed, max_steps=400)
                assert result.outcome is not Outcome.DEADLOCKED, (name, seed)

        system = fixture_system("fib_progress_bug.kmc")
        hits = 0
        for seed in range(100):
            result = simulate(system, 1, seed, max_steps=400)
            if (result.outcome is Outcome.DEADLOCKED
                    and result.final.locals[system.role_index["m"]] == 4):
                hits += 1
        assert hits > 0

        system = fixture_system("fib_reception_bug.kmc")
        channel = system.channel_index[("w", "m")]
        hits = 0
        for seed in range(100):
            result = simulate(system, 1, seed, max_steps=400)
            buf = result.final.buffers[channel]
            if (result.outcome is Outcome.DEADLOCKED
                    and buf and buf[0] == ("result", "int")):
                hits += 1
        assert hits > 0

        system = fixture_system("orphan.kmc")
        result = simulate(system, 1, 0)
        assert result.outcome is Outcome.DEADLOCKED
        assert result.final.buffers[system.channel_index[("a", "b")]] \
            == (("hello", "unit"),)


def test_criterion_9_round_trips_and_stable_reports(capsys):
    with criterion(capsys, 9, "text round-trips and byte-stable reports"):
        rng = random.Random(20260822)
        for _ in range(500):
            system = random_roundtrip_system(rng)
            text = render_system(system)
            back = parse_system(text)
            for role in system.roles:
                assert find_isomorphism(
                    system.machines[role], back.machines[role]) is not None
            assert render_system(back) == text
            bare = parse_system(text.replace("<unit>", ""))
            for role in system.roles:
                assert find_isomorphism(
                    system.machines[role], bare.machines[role]) is not None

        scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
        for name in ("fib.kmc", "fib_reception_bug.kmc"):
            path = str(FIXTURES / name)
            assert main(["check", "--json", path]) in (0, 1)
            first = capsys.readouterr().out
            json.loads(first)  # well formed
            assert main(["check", "--json", path]) in (0, 1)
            assert scrub(capsys.readouterr().out) == scrub(first)
