from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from kmcheck import checker
from kmcheck.checker import (
    EventualReceptionViolation,
    Inconclusive,
    ProgressViolation,
    Safe,
    Unsafe,
    Violation,
    check_exhaustive,
    check_kmc,
    check_kmc_detailed,
    check_safety,
    extract_trace,
)
from kmcheck.dsl import parse_system
from kmcheck.model import Action, Direction, Machine, System, receive, send
from kmcheck.semantics import (
    Configuration,
    HopelessSend,
    Step,
    apply_step,
    build_bounded_graph,
    enabled_steps,
    initial_configuration,
)
from kmcheck.simulator import is_terminated, replay, simulate

from conftest import FIXTURES, fixture_system
from generators import random_system
from oracle import decode, local_fingerprint, reference_graph
from test_explorer_differential import SMALL_FAMILY_MEMBERS, family_system

CLASS_OF = {Safe: "safe", Unsafe: "unsafe", Inconclusive: "inconclusive"}


def _verdict_class(verdict):
    return CLASS_OF[type(verdict)]


def test_fib_covers_all_sends_at_one(golden):
    system = fixture_system("fib.kmc")
    graph = build_bounded_graph(system, 1)
    assert check_exhaustive(system, graph) == ()
    assert check_safety(system, graph) == ()


def test_flood_never_covers_its_sends():
    system = fixture_system("flood.kmc")
    for k in (1, 2, 3):
        graph = build_bounded_graph(system, k)
        obligations = check_exhaustive(system, graph)
        assert obligations
        assert {role for _, role, _ in obligations} == {"a", "b"}
        assert all(a.direction is Direction.SEND for _, _, a in obligations)


def _count_configurations(monkeypatch) -> dict[int, tuple[str, int]]:
    """Per bound the checker explores: ("stopped", configurations kept) or
    ("full", configurations)."""
    sizes = {}
    build = checker.build_bounded_graph

    def counting(system, k, *args, **kwargs):
        try:
            graph = build(system, k, *args, **kwargs)
        except HopelessSend as stop:
            sizes[k] = ("stopped", stop.configs_seen)
            raise
        sizes[k] = ("full", len(graph.configs))
        return graph

    monkeypatch.setattr(checker, "build_bounded_graph", counting)
    return sizes


def test_flood_stops_each_bound_below_the_last_at_a_hopeless_send(monkeypatch):
    # At bound k the flood's graph holds (k+1)^2 configurations.  Neither
    # role ever receives, so the first full queue stays full: exploration
    # stops there, at the first node of depth k, with the (k+1)(k+2)/2
    # configurations of depths 0..k kept.  The last bound is explored in full.
    sizes = _count_configurations(monkeypatch)
    outcome = check_kmc_detailed(fixture_system("flood.kmc"), max_bound=10)
    assert sizes == {**{k: ("stopped", (k + 1) * (k + 2) // 2) for k in range(1, 10)},
                     10: ("full", 121)}
    assert isinstance(outcome.verdict, Inconclusive)
    assert outcome.stats.bounds_tried == tuple(range(1, 11))
    assert outcome.stats.configurations == 121
    assert "at k=10, 22 pending send(s)" in outcome.verdict.note


def test_unverified_findings_come_from_full_graphs(monkeypatch):
    # hints are read off whole graphs, so collecting them explores every bound
    sizes = _count_configurations(monkeypatch)
    system = fixture_system("flood.kmc")
    verdict = check_kmc_detailed(system, max_bound=4, collect_bounded=True).verdict
    assert sizes == {k: ("full", (k + 1) ** 2) for k in range(1, 5)}
    hints = {}
    for k in range(1, 5):
        for v in check_safety(system, build_bounded_graph(system, k)):
            hints.setdefault(v.kind, (k, v))
    assert verdict.bounded == tuple(hints.values())


def test_a_bound_that_can_cover_is_explored_in_full():
    # prefetch's receiver can always still take an item: nothing is
    # hopeless, so a stopping build is the full graph
    system = fixture_system("prefetch.kmc")
    for k in (1, 2):
        graph = build_bounded_graph(system, k, stop_at_hopeless=True)
        full = build_bounded_graph(system, k)
        assert (graph.configs, graph.src, graph.step_id, graph.blocked) \
            == (full.configs, full.src, full.step_id, full.blocked)


def test_prefetch_needs_two_slots():
    system = fixture_system("prefetch.kmc")
    g1 = build_bounded_graph(system, 1)
    blocked = check_exhaustive(system, g1)
    assert any(role == "a" and action == send("b", "item2")
               for _, role, action in blocked)
    g2 = build_bounded_graph(system, 2)
    assert check_exhaustive(system, g2) == ()


def test_starved_send_cannot_wait_on_its_own_role():
    # At k=1, p holds q!a while its queue to q is full.  Only p itself could
    # set off the chain (r!b, then r's go) that lets q drain that queue, and
    # a send's own role does not count towards covering it.
    system = parse_system(
        "role p: q!x; {q!a; end} or {r!b; q!a; end}\n"
        "role q: r?go; p?x; p?a; end\n"
        "role r: p?b; q!go; end\n")
    assert check_exhaustive(system, build_bounded_graph(system, 1)) == (
        (1, "p", send("q", "a")),)
    assert check_exhaustive(system, build_bounded_graph(system, 2)) == ()
    # p's choice between q and r is a non-directed-choice lint, not an error
    assert check_kmc(system).k == 2


def test_deep_graph_is_settled_without_recursion():
    # Two 5,000-state chains give a graph whose depth-first search runs
    # ~10,000 frames deep, far past the interpreter's recursion limit.
    n = 5000
    sender = Machine(frozenset(range(n + 1)), 0,
                     tuple((i, send("b", f"m{i}"), i + 1) for i in range(n)))
    receiver = Machine(frozenset(range(n + 1)), 0,
                       tuple((i, receive("a", f"m{i}"), i + 1) for i in range(n)))
    system = System(("a", "b"), {"a": sender, "b": receiver})
    outcome = check_kmc_detailed(system, max_bound=1)
    assert outcome.verdict == Safe(1)
    assert outcome.stats.configurations == 2 * n + 1


def _machine(*transitions, states=None):
    if states is None:
        states = {0} | {s for s, _, _ in transitions} | {d for _, _, d in transitions}
    return Machine(frozenset(states), 0, tuple(transitions))


HELLO_RECEIVER = _machine((0, receive("a", "hello"), 1))


INVALID_SYSTEMS = pytest.mark.parametrize("machines, complaint", [
    ({"a": _machine((0, send("z", "hello"), 1)), "b": HELLO_RECEIVER},
     "unknown role 'z'"),
    ({"a": _machine((0, send("a", "hello"), 1)), "b": HELLO_RECEIVER},
     "communicates with 'a' itself"),
    ({"a": _machine((0, send("b", "hello"), 1))},
     "role 'b' has no machine"),
    ({"b": HELLO_RECEIVER},
     "role 'a' has no machine"),
    ({"a": _machine((0, send("b", "hello"), 1), (0, send("b", "hello"), 2)),
      "b": HELLO_RECEIVER},
     "sharing an action key"),
    ({"a": _machine((0, send("b", "hello"), 2), states={0, 1}), "b": HELLO_RECEIVER},
     "leaves the state set"),
    ({"a": _machine((0, send("b", "hello"), 1), (0, receive("b", "bye"), 1)),
      "b": HELLO_RECEIVER},
     "mixes send and receive"),
], ids=["unknown-peer", "self-communication", "missing-machine", "missing-first-machine",
        "nondeterminism", "dangling-transition", "mixed-state"])


@INVALID_SYSTEMS
def test_hand_built_invalid_system_is_rejected(machines, complaint):
    system = System(("a", "b"), machines)
    with pytest.raises(ValueError, match="^invalid system: ") as info:
        check_kmc(system)
    assert complaint in str(info.value)


_CFG = Configuration((0, 0), ((),))
_STEP = Step("a", send("b", "hello"))


@pytest.mark.parametrize("run", [
    lambda system: build_bounded_graph(system, 1),
    initial_configuration,
    lambda system: enabled_steps(system, _CFG, 1),
    lambda system: apply_step(system, _CFG, _STEP, 1),
    lambda system: simulate(system, 1),
    lambda system: replay(system, (), 1),
    lambda system: is_terminated(system, _CFG),
], ids=["build_bounded_graph", "initial_configuration", "enabled_steps", "apply_step",
        "simulate", "replay", "is_terminated"])
@INVALID_SYSTEMS
def test_every_entry_point_rejects_a_hand_built_invalid_system(run, machines, complaint):
    # `check_kmc` is covered above
    system = System(("a", "b"), machines)
    for _ in range(2):  # a failed gate is not cached as passed
        with pytest.raises(ValueError, match="^invalid system: ") as info:
            run(system)
        assert complaint in str(info.value)


def test_progress_bug_violations_match_reference(golden):
    system = fixture_system("fib_progress_bug.kmc")
    graph = build_bounded_graph(system, 1)
    violations = check_safety(system, graph)
    got = sorted((v.kind.role, v.kind.state) for v in violations
                 if isinstance(v.kind, ProgressViolation))
    assert got == [tuple(t) for t in golden["verdicts"]["fib_progress_bug.kmc"]["progress"]]
    # each witness trace replays, and the stuck role really is parked there
    for v in violations:
        final = replay(system, v.trace, 1)
        ri = system.role_index[v.kind.role]
        assert final.locals[ri] == v.kind.state
        machine = system.machines[v.kind.role]
        assert {a.direction for a, _ in machine.outgoing(v.kind.state)} == {Direction.RECEIVE}
    stuck_m = [v for v in violations
               if isinstance(v.kind, ProgressViolation) and v.kind.role == "m"]
    assert len(stuck_m[0].trace) == \
        golden["depths"]["fib_progress_bug.kmc"]["stuck_m"]


def test_reception_bug_violations_match_reference(golden):
    system = fixture_system("fib_reception_bug.kmc")
    graph = build_bounded_graph(system, 1)
    violations = check_safety(system, graph)
    assert violations
    kinds = {(v.kind.sender, v.kind.receiver, v.kind.label, v.kind.sort)
             for v in violations}
    assert sorted(kinds) == \
        [tuple(t) for t in golden["verdicts"]["fib_reception_bug.kmc"]["er"]]
    ci = system.channel_index[("w", "m")]
    for v in violations:
        final = replay(system, v.trace, 1)
        assert final.buffers[ci] and final.buffers[ci][0] == ("result", "int")
    assert min(len(v.trace) for v in violations) == \
        golden["depths"]["fib_reception_bug.kmc"]["rotten"]
    # an equal copy of the system, with a step table of its own, reads the same
    assert check_safety(System(system.roles, system.machines), graph) == violations


def test_checks_read_the_graphs_own_system():
    # the `system` argument is not read: a foreign one changes nothing
    foreign = fixture_system("prefetch.kmc")
    for name in ("fib.kmc", "fib_reception_bug.kmc", "flood.kmc"):
        system = fixture_system(name)
        graph = build_bounded_graph(system, 1)
        assert check_exhaustive(foreign, graph) == check_exhaustive(graph.system, graph)
        assert check_safety(foreign, graph) == check_safety(graph.system, graph)
    assert check_exhaustive(foreign, graph) != ()  # flood starves a send at k=1


def test_silent_roles_cost_no_channels():
    # 2,002 roles of which only one pair talks: one queue, not 2002 * 2001
    text = "role a: b!x<unit>; end\nrole b: a?x<unit>; end\n" + "".join(
        f"role r{i:04}: end\n" for i in range(2000))
    tracemalloc.start()
    try:
        system = parse_system(text)
        verdict = check_kmc(system, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.channels == (("a", "b"),)
    assert isinstance(verdict, Safe) and verdict.k == 1
    assert peak < 20 * 2**20, peak


def test_orphan_message_detected():
    system = fixture_system("orphan.kmc")
    graph = build_bounded_graph(system, 1)
    (v,) = check_safety(system, graph)
    assert isinstance(v.kind, EventualReceptionViolation)
    assert (v.kind.sender, v.kind.receiver, v.kind.label) == ("a", "b", "hello")
    assert len(v.trace) == 1


@pytest.mark.parametrize("text", [
    "role a: b?x; end\nrole b: end\n",
    "role a: b?x; end\nrole b: c!y; end\nrole c: b?y; end\n",
], ids=["two-roles", "three-roles"])
def test_a_receive_nobody_can_serve_is_stuck_at_once(text):
    # no role sends to `a`, so no channel leads into it: it waits for ever
    # from the initial configuration on
    system = parse_system(text)
    graph = build_bounded_graph(system, 1)
    assert check_safety(system, graph) == (Violation(ProgressViolation("a", 0), 0, ()),)


def test_all_terminal_graph_is_safe():
    system = fixture_system("solo.kmc")
    graph = build_bounded_graph(system, 1)
    assert check_safety(system, graph) == ()


# the family members' graphs have edges into node 0; no fixture's has
TRACE_SOURCES = [path.name for path in sorted(FIXTURES.glob("*.kmc"))] + SMALL_FAMILY_MEMBERS


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("source", TRACE_SOURCES, ids=lambda s: s if isinstance(s, str)
                         else s[0].__name__)
def test_traces_are_shortest_and_replayable(source, k):
    system = fixture_system(source) if isinstance(source, str) else family_system(*source)
    graph = build_bounded_graph(system, k)
    ref = reference_graph(system, k)  # an independent BFS, for the parents
    assert decode(graph).nodes == ref.nodes
    for v in check_safety(system, graph):
        assert v.trace == extract_trace(graph, v.witness)
    for node in graph.nodes:
        back, at = [], node
        while ref.parent[at] is not None:
            at, step = ref.parent[at]
            back.append(step)
        trace = extract_trace(graph, node)
        assert trace == tuple(reversed(back))
        assert replay(system, trace, k) == ref.nodes[node]


def test_trace_of_a_node_outside_the_graph_raises():
    graph = build_bounded_graph(fixture_system("flood.kmc"), 2)
    n = len(graph.configs)
    for node in (-1, -n, n, n + 5):
        with pytest.raises(IndexError, match=f"node {node} is not in the graph of {n} nodes"):
            extract_trace(graph, node)
    assert len(extract_trace(graph, n - 1)) > 0


def test_verdicts_match_frozen_reference(golden):
    for name, expect in golden["verdicts"].items():
        verdict = check_kmc(fixture_system(name), max_bound=golden["max_bound"])
        assert _verdict_class(verdict) == expect["class"], name
        assert getattr(verdict, "k", None) == expect["k"], name


def test_bounds_are_tried_in_order():
    outcome = check_kmc_detailed(fixture_system("prefetch.kmc"), max_bound=5)
    assert isinstance(outcome.verdict, Safe)
    assert outcome.verdict.k == 2
    assert outcome.stats.bounds_tried == (1, 2)


def test_equal_checks_give_equal_verdicts(monkeypatch):
    # a verdict holds only what was found, not how long it took
    ticks = itertools.count()
    monkeypatch.setattr(checker, "_ms", lambda started: next(ticks))
    system = fixture_system("fib.kmc")
    assert check_kmc(system) == check_kmc(system)


def test_inconclusive_note_names_the_blockage():
    verdict = check_kmc(fixture_system("flood.kmc"), max_bound=2)
    assert isinstance(verdict, Inconclusive)
    assert verdict.max_bound == 2
    assert "k=2" in verdict.note
    assert "cannot fire" in verdict.note


def test_inconclusive_can_carry_unverified_findings():
    outcome = check_kmc_detailed(
        fixture_system("flood.kmc"), max_bound=2, collect_bounded=True)
    verdict = outcome.verdict
    assert isinstance(verdict, Inconclusive)
    assert verdict.bounded
    assert all(k == 1 for k, _ in verdict.bounded)  # first bound already finds them
    channels = {(v.kind.sender, v.kind.receiver) for _, v in verdict.bounded}
    assert channels == {("a", "b"), ("b", "a")}
    # without the flag nothing is attached
    plain = check_kmc_detailed(fixture_system("flood.kmc"), max_bound=2)
    assert plain.verdict.bounded == ()


def test_fingerprint_of_handshake():
    system = fixture_system("handshake.kmc")
    graph = build_bounded_graph(system, 1)
    assert local_fingerprint(graph, "a") == frozenset({
        (0, frozenset({send("b", "hello")})),
        (1, frozenset()),
    })


def test_fingerprints_stabilise_at_the_safe_bound(golden):
    for name, expect in golden["verdicts"].items():
        if expect["class"] != "safe":
            continue
        system = fixture_system(name)
        k = expect["k"]
        at_k = build_bounded_graph(system, k)
        beyond = build_bounded_graph(system, k + 1)
        for role in system.roles:
            assert local_fingerprint(at_k, role) == \
                local_fingerprint(beyond, role), (name, role)


def test_fingerprint_grows_below_the_safe_bound():
    system = fixture_system("prefetch.kmc")
    g1 = build_bounded_graph(system, 1)
    g2 = build_bounded_graph(system, 2)
    assert local_fingerprint(g1, "a") != local_fingerprint(g2, "a")


def test_max_bound_must_be_positive():
    with pytest.raises(ValueError):
        check_kmc(fixture_system("fib.kmc"), max_bound=0)


def _renamed(system):
    """The same protocol with every role and label renamed.  Role order is
    reversed, so the channels are numbered in another order too."""
    name = {r: f"role{len(system.roles) - i}" for i, r in enumerate(system.roles)}

    def rename(a):
        return Action(name[a.peer], a.direction, f"msg_{a.label}", a.sort)

    return System(
        tuple(name[r] for r in reversed(system.roles)),
        {name[r]: Machine(m.states, m.initial,
                          tuple((s, rename(a), d) for s, a, d in m.transitions))
         for r, m in system.machines.items()})


def _summary(system):
    outcome = check_kmc_detailed(system, max_bound=4, max_configs=20_000)
    verdict = outcome.verdict
    return (_verdict_class(verdict), getattr(verdict, "k", None),
            len(getattr(verdict, "violations", ())), outcome.stats.configurations)


def test_renaming_roles_and_labels_keeps_the_verdict():
    systems = [fixture_system(path.name) for path in sorted(FIXTURES.glob("*.kmc"))]
    rng = random.Random(20261018)
    systems += [random_system(rng, max_roles=4) for _ in range(500)]
    for system in systems:
        assert _summary(_renamed(system)) == _summary(system), system.roles
