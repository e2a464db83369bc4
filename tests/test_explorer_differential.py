"""The packed explorer against the full-width reference in oracle.py: every
graph must have the same nodes, edges, parents and depths, numbering and edge
order included; each node's chain of incoming edges must hold the edges into
it, and each channel's blocked list the nodes where a send on it is full.
Systems with negative, sparse or huge state ids, and queues whose fields
outgrow a machine word, pin the packed layout."""
from __future__ import annotations

import random
import sys
import time

import pytest

from kmcheck.checker import Safe, Unsafe, check_kmc_detailed
from kmcheck.dsl import parse_system
from kmcheck.model import Direction, Machine, System, receive, send
from kmcheck.semantics import ResourceExhausted, build_bounded_graph

import oracle
from conftest import FIXTURES, HERE, fixture_system
from generators import own_move_system, random_system
from test_checks_per_bound import _compare_bound

sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402


def _agrees(system, k: int) -> int:
    """Compare the graph of `system` under `k` with the reference; return
    how many blocked sends it lists."""
    graph = build_bounded_graph(system, k)
    ref = oracle.reference_graph(system, k)
    got = oracle.decode(graph)
    assert got.nodes == ref.nodes
    assert got.edges == ref.edges
    assert got.parent == ref.parent  # which fixes every BFS depth too
    # the chains: each node's, reversed, holds the edges into it in edge order
    into = [[] for _ in ref.nodes]
    for e, (_, _, v) in enumerate(ref.edges):
        into[v].append(e)
    assert len(graph.last_in) == len(into) and len(graph.prev_in) == len(ref.edges)
    chains = []
    for e in graph.last_in:
        chain = []
        while e >= 0:
            chain.append(e)
            e = graph.prev_in[e]
        chains.append(chain[::-1])
    assert chains == into
    # the blocked sends: per channel with a send, the nodes where its queue
    # is full while its sender's state has a send on it
    assert dict(zip(system.channels, map(list, graph.blocked))) \
        == _blocked_sends(system, k, ref.nodes)
    return sum(map(len, graph.blocked))


def _blocked_sends(system, k: int, nodes) -> dict:
    """(sender, receiver) -> the indices of `nodes` where the channel's
    queue holds `k` messages and the sender's state has a send to the
    receiver, for every channel some machine sends on."""
    sending = {}  # channel -> the sender's states with a send on it
    for sender, m in system.machines.items():
        for state, action, _ in m.transitions:
            if action.direction is Direction.SEND:
                sending.setdefault((sender, action.peer), set()).add(state)
    return {(sender, receiver): [
                i for i, cfg in enumerate(nodes)
                if len(cfg.buffers[system.channels.index((sender, receiver))]) == k
                and cfg.locals[system.role_index[sender]] in states]
            for (sender, receiver), states in sending.items()}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.kmc")), ids=lambda p: p.name)
def test_fixture_graphs_match_reference(path, k):
    _agrees(fixture_system(path.name), k)


SMALL_FAMILY_MEMBERS = [
    (workloads.pipeline, (4,)),
    (workloads.fanout, (3,)),
    (workloads.burst_unsafe, (3, 2)),
    (workloads.flooded_pipeline, (4, 2)),
]


def family_system(family, args) -> System:
    return parse_system(workloads.make_case("small", family, args, 3, seed=5).text)


@pytest.mark.parametrize("family, args", SMALL_FAMILY_MEMBERS,
                         ids=[f.__name__ for f, _ in SMALL_FAMILY_MEMBERS])
def test_small_family_graphs_match_reference(family, args):
    system = family_system(family, args)
    for k in (1, 2, 3):
        _agrees(system, k)


def test_roles_split_into_lookup_blocks_match_reference():
    # fanout 4 has 11 bits of role fields, so its roles take two lookups
    system = parse_system(workloads.make_case("fanout4", workloads.fanout, (4,), 3, seed=5).text)
    for k in (1, 2):
        _agrees(system, k)


def test_random_graphs_match_reference():
    rng = random.Random(2024)
    started = time.process_time()  # CPU seconds, unlike wall time immune to a busy host
    blocked = 0
    for _ in range(1000):
        system = random_system(rng, max_roles=4, max_states=6)
        for k in (1, 2, 3):
            blocked += _agrees(system, k)
    assert time.process_time() - started < 5.0
    assert blocked >= 10_000, blocked


def test_own_move_graphs_match_reference():
    # every draw starves a send at some bound, so its blocked lists fill up
    rng = random.Random(20261018)
    blocked = 0
    for _ in range(100):
        system = own_move_system(rng)
        for k in (1, 2, 3):
            blocked += _agrees(system, k)
    assert blocked >= 1000, blocked


def test_split_send_runs_note_a_node_once():
    # a's sends to b form two runs, split by a send to c: a node where a's
    # queue to b is full is still listed once
    system = parse_system("role a: rec t. {b!x; t} or {c!y; t} or {b!z; t}\n"
                          "role b: rec t. {a?x; t} or {a?z; t}\n"
                          "role c: rec t. a?y; t\n")
    for k in (1, 2):
        assert _agrees(system, k)
        assert _compare_bound(system, k) is not None  # both checks met the oracle


def _verdict(system):
    """The verdict with its timing left out, or where the cap stopped it."""
    try:
        outcome = check_kmc_detailed(system, max_bound=3, max_configs=20_000)
    except ResourceExhausted as exc:
        return ("cap", exc.k), exc.configs_seen, None
    stats = outcome.stats
    return (outcome.verdict if not isinstance(outcome.verdict, Safe)
            else ("safe", outcome.verdict.k), stats.configurations, stats.edges)


def test_sparse_and_huge_state_ids_pack():
    # A configuration packs each role's index among its sorted states, not
    # the state id itself, so negative and huge ids cost no extra bits.
    a = Machine(frozenset({-3, 2**40}), -3,
                ((-3, send("b", "x"), 2**40), (2**40, send("b", "y"), -3)))
    b = Machine(frozenset({7}), 7, ((7, receive("a", "x"), 7), (7, receive("a", "y"), 7)))
    system = System(("a", "b"), {"a": a, "b": b})
    for k in (1, 2, 3):
        _agrees(system, k)
    assert _verdict(system) == (("safe", 1), 4, 4)


def _renumbered(system, rng: random.Random):
    """`system` with every machine's states renamed to distinct negative,
    sparse or huge ids in an order unrelated to the old one."""
    machines = {}
    for role, m in system.machines.items():
        ids: set[int] = set()
        while len(ids) < len(m.states):
            ids.add(rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 20, 70))))
        new = dict(zip(sorted(m.states), rng.sample(sorted(ids), len(ids))))
        machines[role] = Machine(frozenset(new.values()), new[m.initial],
                                 tuple((new[s], a, new[d]) for s, a, d in m.transitions))
    return System(system.roles, machines)


def test_renumbered_random_states_pack():
    rng = random.Random(4242)
    for _ in range(150):
        system = random_system(rng, max_roles=4, max_states=6)
        renumbered = _renumbered(system, rng)
        for k in (1, 2, 3):
            _agrees(renumbered, k)
        before, after = _verdict(system), _verdict(renumbered)
        if isinstance(before[0], Unsafe):  # violations name states: compare them renamed
            assert [v.witness for v in before[0].violations] \
                == [v.witness for v in after[0].violations]
            before, after = before[1:], after[1:]
        assert before == after


def test_fields_wider_than_one_digit():
    # 120 labels take 7 bits each, so at k=10 the queue field alone spans
    # 71 bits: the packed configuration needs several 30-bit digits.
    system = parse_system(workloads.make_case(
        "seq", workloads.looping_sequence, (120,), 10, seed=5).text)
    for k in range(1, 11):
        _agrees(system, k)
        assert _compare_bound(system, k) is not None  # both checks met the oracle


def test_channel_carrying_a_hundred_labels():
    # p sends one of 100 labels twice, so at k=2 a queue holds two 7-bit
    # codes; q's reply is a second, one-label channel.
    labels = [f"l{i}" for i in range(100)]
    p = " or ".join(f"{{q!{x}; q!{x}; q?ack; t}}" for x in labels)
    q = " or ".join(f"{{p?{x}; p?{x}; p!ack; t}}" for x in labels)
    system = parse_system(f"role p: rec t. {p}\nrole q: rec t. {q}\n")
    for k in (1, 2):
        _agrees(system, k)
        assert _compare_bound(system, k) is not None  # both checks met the oracle
