from __future__ import annotations

import pytest

from kmcheck.model import Machine, System, receive, send
from kmcheck.semantics import Step
from kmcheck.simulator import (
    Outcome,
    ReplayError,
    format_trace,
    is_terminated,
    parse_trace,
    replay,
    simulate,
)

from conftest import fixture_system


def test_handshake_run_is_forced():
    system = fixture_system("handshake.kmc")
    result = simulate(system, bound=1, seed=0)
    assert result.outcome is Outcome.TERMINATED
    assert result.steps_taken == 2
    assert [str(s) for s in result.trace] == ["a b!hello<unit>", "b a?hello<unit>"]
    assert is_terminated(system, result.final)


def _machine(*transitions) -> Machine:
    return Machine(frozenset({0} | {d for _, _, d in transitions}), 0, transitions)


@pytest.mark.parametrize("sender, complaint", [
    (_machine((0, send("z", "hello"), 1)), "addresses unknown role 'z'"),
    (_machine((0, send("b", "hello"), 1), (0, send("b", "hello"), 2)),
     "sharing an action key"),
], ids=["unknown-peer", "nondeterminism"])
def test_simulate_rejects_invalid_system(sender, complaint):
    system = System(("a", "b"), {"a": sender, "b": _machine((0, receive("a", "hello"), 1))})
    with pytest.raises(ValueError, match="^invalid system: ") as info:
        simulate(system, bound=1)
    assert complaint in str(info.value)


def test_replay_rejects_invalid_system():
    # the unknown peer sits in a state that the trace never reaches
    sender = _machine((0, send("b", "hello"), 1), (1, send("z", "bye"), 2))
    system = System(("a", "b"), {"a": sender, "b": _machine((0, receive("a", "hello"), 1))})
    with pytest.raises(ValueError, match="^invalid system: .*unknown role 'z'"):
        replay(system, [Step("a", send("b", "hello"))], bound=1)


def test_same_seed_same_run():
    system = fixture_system("fib.kmc")
    a = simulate(system, bound=1, seed=42)
    b = simulate(system, bound=1, seed=42)
    assert a == b


def test_seeds_pick_different_interleavings():
    system = fixture_system("fib.kmc")
    traces = {simulate(system, bound=1, seed=s).trace for s in range(20)}
    assert len(traces) > 1


def test_fib_runs_terminate_under_its_bound():
    system = fixture_system("fib.kmc")
    for seed in range(50):
        result = simulate(system, bound=1, seed=seed)
        assert result.outcome is Outcome.TERMINATED


def test_reception_bug_runs_deadlock_with_pending_result():
    system = fixture_system("fib_reception_bug.kmc")
    ci = system.channel_index[("w", "m")]
    result = simulate(system, bound=1, seed=0)
    assert result.outcome is Outcome.DEADLOCKED
    assert result.final.buffers[ci]
    assert result.final.buffers[ci][0] == ("result", "int")


def test_bounded_flood_deadlocks_once_queues_fill():
    system = fixture_system("flood.kmc")
    result = simulate(system, bound=3, seed=1, max_steps=100)
    assert result.outcome is Outcome.DEADLOCKED
    assert result.steps_taken == 6  # both queues filled, nobody can move
    assert all(len(buf) == 3 for buf in result.final.buffers)


def test_budget_exhaustion_on_a_perpetual_loop():
    from kmcheck.dsl import parse_system

    system = parse_system(
        "role a: rec t. b!ping<unit>; b?pong<unit>; t\n"
        "role b: rec t. a?ping<unit>; a!pong<unit>; t\n")
    result = simulate(system, bound=1, seed=1, max_steps=100)
    assert result.outcome is Outcome.BUDGET_EXHAUSTED
    assert result.steps_taken == 100


def test_unbounded_simulation_never_blocks_sends():
    system = fixture_system("flood.kmc")
    result = simulate(system, bound=None, seed=5, max_steps=500)
    assert result.outcome is Outcome.BUDGET_EXHAUSTED
    total_queued = sum(len(buf) for buf in result.final.buffers)
    received = sum(1 for s in result.trace if s.action.direction.value == "?")
    assert received == 0
    assert total_queued == 500


def test_replay_reaches_the_simulated_configuration():
    for name in ("fib.kmc", "fib_progress_bug.kmc", "prefetch.kmc"):
        system = fixture_system(name)
        for seed in range(10):
            result = simulate(system, bound=2, seed=seed)
            assert replay(system, result.trace, 2) == result.final


def test_replay_rejects_receive_before_send():
    system = fixture_system("handshake.kmc")
    good = simulate(system, bound=1, seed=0).trace
    swapped = (good[1], good[0])
    with pytest.raises(ReplayError) as info:
        replay(system, swapped, 1)
    assert info.value.index == 0
    assert info.value.reason == "not_enabled"
    assert str(info.value) == "step 0: b expects 'hello' from a but nothing is queued"

    # u takes the result while the progress update is still at the head
    system = fixture_system("fib.kmc")
    early = (
        Step("u", send("m", "compute", "int")), Step("m", receive("u", "compute", "int")),
        Step("m", send("w", "task", "int")), Step("m", send("w", "task", "int")),
        Step("w", receive("m", "task", "int")), Step("w", send("m", "result", "int")),
        Step("m", receive("w", "result", "int")), Step("m", send("u", "wip", "int")),
        Step("u", receive("m", "result", "int")))
    with pytest.raises(ReplayError) as info:
        replay(system, early, None)
    assert info.value.index == 8
    assert info.value.reason == "not_enabled"
    assert str(info.value) == "step 8: u expects 'result' from m but 'wip' is queued"


def test_replay_rejects_receive_on_a_pair_nobody_sends_on():
    system = System(("a", "b"), {
        "a": Machine(frozenset({0, 1}), 0, ((0, receive("b", "x"), 1),)),
        "b": Machine(frozenset({0}), 0, ())})
    assert system.channels == ()  # no queue for the pair
    with pytest.raises(ReplayError) as info:
        replay(system, (Step("a", receive("b", "x")),), 1)
    assert info.value.index == 0
    assert info.value.reason == "not_enabled"
    assert str(info.value) == "step 0: a expects 'x' from b but nothing is queued"


def test_replay_rejects_unknown_role():
    system = fixture_system("handshake.kmc")
    with pytest.raises(ReplayError) as info:
        replay(system, (Step("ghost", send("b", "hello")),), 1)
    assert info.value.reason == "unknown_role"


def test_replay_rejects_action_the_machine_lacks():
    system = fixture_system("handshake.kmc")
    with pytest.raises(ReplayError) as info:
        replay(system, (Step("a", send("b", "goodbye")),), 1)
    assert info.value.reason == "bad_action"
    assert info.value.index == 0


def test_replay_rejects_send_past_the_bound():
    system = fixture_system("prefetch.kmc")
    trace = (Step("a", send("b", "item")), Step("a", send("b", "item2")))
    assert replay(system, trace, 2)  # fine with two slots
    with pytest.raises(ReplayError) as info:
        replay(system, trace, 1)
    assert info.value.index == 1
    assert info.value.reason == "not_enabled"
    assert str(info.value) == "step 1: queue a->b is full, cannot send 'item2'"


@pytest.mark.parametrize("bound", [0, -1])
def test_a_bound_below_one_is_rejected(bound):
    # a queue of no slots would leave the sender nothing to do; the bound is
    # refused whether or not the system has a step to take
    system = fixture_system("handshake.kmc")
    solo = fixture_system("solo.kmc")  # terminated from the start
    trace = simulate(system, bound=1).trace
    for target in (system, solo):
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            simulate(target, bound)
    for target, steps in ((system, trace), (system, ()), (solo, ())):
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            replay(target, steps, bound)
    assert replay(system, trace, None) == simulate(system, None).final


def test_trace_text_roundtrip():
    system = fixture_system("fib.kmc")
    trace = simulate(system, bound=1, seed=3).trace
    text = format_trace(trace)
    assert parse_trace(text) == trace
    assert text.count("\n") == len(trace)
    assert parse_trace("\n" + text.replace("\n", "\n \t\n")) == trace  # blank lines skipped


def test_parse_trace_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace("not a trace line\n")


def test_solo_system_terminates_immediately():
    system = fixture_system("solo.kmc")
    result = simulate(system, bound=1, seed=9)
    assert result.outcome is Outcome.TERMINATED
    assert result.steps_taken == 0
