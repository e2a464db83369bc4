"""Disjoint unions of systems: exact answers at sizes the oracle cannot reach.

Rename the roles of some systems apart and run them side by side.  A
configuration of the union is one configuration of each part, and each step
moves one part.  So at every bound `k`, with `n_i` nodes, `e_i` edges and
`o_i` starved sends in part `i` and `n` the product of the `n_i`, the union
has `n` nodes, the sum of `e_i * n / n_i` edges and the sum of
`o_i * n / n_i` starved sends.  Its violations are the parts' together, each
with the same trace length: a part's shallowest witness, with every other
part still in its initial configuration, is as shallow as the union's.
(This is a metamorphic relation: Chen et al., "Metamorphic Testing: A Review
of Challenges and Opportunities", ACM Computing Surveys 51(1), 2018.)

The wide unions reach, with drawn systems, what only hand-built cases
reached before: configurations wider than 64 bits and `reach` values wider
than 30 bits.
"""
from __future__ import annotations

import dataclasses
import math
import random
import time

from kmcheck.checker import check_exhaustive, check_safety
from kmcheck.model import Machine, System
from kmcheck.semantics import build_bounded_graph

from generators import own_move_system, random_system


def _renamed(system: System, prefix: str) -> System:
    name = {role: prefix + role for role in system.roles}
    machines = {
        name[role]: Machine(m.states, m.initial, tuple(
            (src, dataclasses.replace(action, peer=name[action.peer]), dst)
            for src, action, dst in m.transitions))
        for role, m in system.machines.items()}
    return System(tuple(name[role] for role in system.roles), machines)


def _counts(system: System, k: int):
    """Nodes, edges, starved sends and (violation kind, trace length) pairs
    at bound `k`, and the graph."""
    graph = build_bounded_graph(system, k)
    found = {(v.kind, len(v.trace)) for v in check_safety(system, graph)}
    return len(graph.configs), len(graph.src), len(check_exhaustive(system, graph)), found, graph


def _parts(systems) -> list[System]:
    return [_renamed(s, f"{chr(ord('a') + i)}_") for i, s in enumerate(systems)]


def _check_union(parts: list[System], k: int, part_counts=None):
    """Assert the relation for the union of `parts` (roles already apart)
    at bound `k`; the union's `_counts`."""
    part_counts = part_counts or [_counts(part, k) for part in parts]
    union = System(tuple(r for part in parts for r in part.roles),
                   {r: m for part in parts for r, m in part.machines.items()})
    counts = n, e, o, found, _ = _counts(union, k)
    assert n == math.prod(c[0] for c in part_counts)
    assert e == sum(c[1] * n // c[0] for c in part_counts)
    assert o == sum(c[2] * n // c[0] for c in part_counts)
    assert found == set().union(*(c[3] for c in part_counts))
    return counts


def test_two_part_unions_multiply_their_parts():
    rng = random.Random(20261024)
    started = time.process_time()
    largest = starved = violating = 0

    def draw() -> System:
        return own_move_system(rng) if rng.random() < 0.2 else random_system(rng)

    for _ in range(300):
        parts = _parts([draw(), draw()])
        for k in (1, 2):
            n, _, o, found, _ = _check_union(parts, k)
            largest = max(largest, n)
            starved += bool(o)
            violating += bool(found)
    # 2,664, 333 and 590 at the time of writing
    assert largest >= 2000 and starved >= 250 and violating >= 450, (largest, starved, violating)
    assert time.process_time() - started < 5.0


def test_wide_unions_multiply_their_parts():
    # unions of five systems at k = 2 whose product stays small; a few of
    # them pack a configuration into more than 64 bits and give a node more
    # than 30 event bits
    rng = random.Random(20261025)
    started = time.process_time()
    checked = wide = 0
    for _ in range(60):
        parts = _parts([random_system(rng, max_roles=4, max_states=6) for _ in range(5)])
        part_counts = [_counts(part, 2) for part in parts]
        if math.prod(c[0] for c in part_counts) > 4000:
            continue
        graph = _check_union(parts, 2, part_counts)[4]
        checked += 1
        widest = max(cfg.bit_length() for cfg in graph.configs)
        wide += widest > 64 and max(bits.bit_length() for bits in graph.reach) > 30
    # 39 and 3 at the time of writing
    assert checked >= 30 and wide >= 2, (checked, wide)
    assert time.process_time() - started < 5.0


def _decoded(graph, roles, channels) -> tuple:
    """Per node of `graph`, the states of `roles` and the queues of
    `channels` (each given by index)."""
    return [(tuple(graph.state(cfg, ri) for ri in roles),
             tuple(graph.queue(cfg, j) for j in channels)) for cfg in graph.configs]


def test_union_nodes_reach_what_their_parts_reach():
    # Decode each union node into one node per part.  A path of the union
    # moves the parts independently, so the union node reaches each event
    # its parts reach and no other: its `reach` value is the OR of theirs,
    # a part's bits moved to the union's channel numbering.  A candidate of
    # a union channel is one of its part's candidates, beside any node of
    # the other parts.
    rng = random.Random(20261024)
    started = time.process_time()
    values = counts = 0

    def draw() -> System:
        return own_move_system(rng) if rng.random() < 0.2 else random_system(rng)

    for _ in range(300):
        parts = _parts([draw(), draw()])
        union = System(tuple(r for part in parts for r in part.roles),
                       {r: m for part in parts for r, m in part.machines.items()})
        c = len(union.channels)
        for k in (1, 2):
            graph = build_bounded_graph(union, k)
            n, want = len(graph.configs), [0] * len(graph.configs)
            for part in parts:
                part_graph = build_bounded_graph(part, k)
                cp, n_i = len(part.channels), len(part_graph.configs)
                at = [union.channel_index[ch] for ch in part.channels]
                node = {key: v for v, key in enumerate(
                    _decoded(part_graph, range(len(part.roles)), range(cp)))}
                moved = [sum((bits >> j & 1) << J | (bits >> cp + j & 1) << c + J
                             for j, J in enumerate(at)) for bits in part_graph.reach]
                keys = _decoded(graph, [union.role_index[r] for r in part.roles], at)
                for u, key in enumerate(keys):
                    want[u] |= moved[node[key]]
                for j, J in enumerate(at):
                    assert len(graph.blocked[J]) == len(part_graph.blocked[j]) * n // n_i
                    counts += 1
            assert graph.reach == want
            values += n
    # 19,772 node values and 1,888 candidate counts at the time of writing
    assert values >= 15_000 and counts >= 1_500, (values, counts)
    assert time.process_time() - started < 5.0
