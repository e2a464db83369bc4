from __future__ import annotations

import pytest

from kmcheck.checker import check_kmc_detailed
from kmcheck.dsl import parse_system
from kmcheck.model import Direction
from kmcheck.semantics import (
    Configuration,
    ResourceExhausted,
    apply_step,
    build_bounded_graph,
    enabled_steps,
    initial_configuration,
)
from kmcheck.simulator import is_terminated

from conftest import fixture_system
from oracle import decode, reference_graph


def test_initial_configuration_shape():
    system = fixture_system("fib.kmc")
    cfg = initial_configuration(system)
    assert cfg.locals == (0, 0, 0)
    assert len(cfg.buffers) == 4  # one queue per pair some role sends on
    assert all(buf == () for buf in cfg.buffers)


def test_fib_initially_has_exactly_one_step():
    system = fixture_system("fib.kmc")
    steps = enabled_steps(system, initial_configuration(system), 1)
    assert len(steps) == 1
    (step, nxt) = steps[0]
    assert step.role == "u"
    assert str(step.action) == "m!compute<int>"
    ci = system.channel_index[("u", "m")]
    assert nxt.buffers[ci] == (("compute", "int"),)


def test_step_order_follows_role_then_declaration_order():
    system = parse_system(
        "role a: {b!x<unit>; end} or {b!y<unit>; end}\n"
        "role b: {a?x<unit>; end} or {a?y<unit>; end}\n")
    steps = enabled_steps(system, initial_configuration(system), 1)
    assert [str(s.action) for s, _ in steps] == ["b!x<unit>", "b!y<unit>"]
    # after sending x, only the matching receive is enabled
    _, after = steps[0]
    follow = enabled_steps(system, after, 1)
    assert [(s.role, s.action.label) for s, _ in follow] == [("b", "x")]


def test_receive_blocked_by_mismatched_head():
    system = parse_system(
        "role a: b!x<unit>; b!y<unit>; end\n"
        "role b: {a?y<unit>; a?x<unit>; end} or {a?x<unit>; a?y<unit>; end}\n")
    cfg = initial_configuration(system)
    for _ in range(2):  # a sends x then y
        cfg = enabled_steps(system, cfg, 2)[0][1]
    labels = [s.action.label for s, _ in enabled_steps(system, cfg, 2)]
    assert labels == ["x"]  # only the queue head is receivable


def test_send_blocked_at_full_queue():
    system = fixture_system("flood.kmc")
    cfg = initial_configuration(system)
    cfg = enabled_steps(system, cfg, 1)[0][1]  # a fills a->b
    remaining = [(s.role, s.action.label) for s, _ in enabled_steps(system, cfg, 1)]
    assert remaining == [("b", "msg")]
    # unbounded queues never block sends
    assert len(enabled_steps(system, cfg, None)) == 2


def test_graph_counts_match_frozen_reference(golden):
    for name, pins in golden["graphs"].items():
        system = fixture_system(name)
        for k, (nodes, edges) in pins.items():
            graph = build_bounded_graph(system, int(k))
            assert (len(graph.nodes), len(graph.edges)) == (nodes, edges), name


def test_breadth_first_numbering_and_parents():
    system = fixture_system("fib.kmc")
    graph = build_bounded_graph(system, 1)
    ref = reference_graph(system, 1)  # an independent BFS, for the depths
    got = decode(graph)
    assert got.nodes == ref.nodes
    assert got.nodes[0] == initial_configuration(system)
    assert ref.depth == sorted(ref.depth)  # discovery in depth order
    assert got.parent[0] is None
    for v in graph.nodes[1:]:
        u, step = got.parent[v]
        assert ref.depth[v] == ref.depth[u] + 1
        assert apply_step(system, got.nodes[u], step, 1) == got.nodes[v]


def test_every_edge_is_a_real_step():
    system = fixture_system("prefetch.kmc")
    got = decode(build_bounded_graph(system, 2))
    for u, step, v in got.edges:
        assert apply_step(system, got.nodes[u], step, 2) == got.nodes[v]


def test_exploration_is_deterministic():
    system = fixture_system("fib.kmc")
    g1 = build_bounded_graph(system, 2)
    g2 = build_bounded_graph(system, 2)
    assert decode(g1) == decode(g2)  # nodes, edges and parents


def test_resource_cap_raises_with_count():
    system = fixture_system("fib.kmc")
    with pytest.raises(ResourceExhausted) as info:
        build_bounded_graph(system, 3, max_configs=10)
    assert (info.value.configs_seen, info.value.k, info.value.cap) == (10, 3, 10)
    assert str(info.value) == "exploration at k=3 stopped after 10 configurations (cap 10)"


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        build_bounded_graph(fixture_system("fib.kmc"), 0)
    system = fixture_system("handshake.kmc")
    cfg = initial_configuration(system)
    ((step, after),) = enabled_steps(system, cfg, None)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            enabled_steps(system, cfg, bound)
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            apply_step(system, cfg, step, bound)
    assert apply_step(system, cfg, step, 1) == after


@pytest.mark.parametrize("cap", [0, -3])
def test_configuration_cap_must_be_positive(cap):
    # the initial configuration alone is one kept configuration
    system = parse_system("role a: end\nrole b: end")
    with pytest.raises(ValueError, match="^max_configs must be at least 1$"):
        build_bounded_graph(system, 1, max_configs=cap)
    with pytest.raises(ValueError, match="^max_configs must be at least 1$"):
        check_kmc_detailed(system, max_configs=cap)
    assert len(build_bounded_graph(system, 1, max_configs=1).configs) == 1


def test_apply_step_rejects_disabled_steps():
    system = fixture_system("handshake.kmc")
    cfg = initial_configuration(system)
    ((send_step, after),) = enabled_steps(system, cfg, 1)
    ((recv_step, _),) = enabled_steps(system, after, 1)
    assert apply_step(system, cfg, recv_step, 1) is None  # nothing queued yet
    assert apply_step(system, after, send_step, 1) is None  # already sent


@pytest.mark.parametrize("cfg, mismatch", [
    (Configuration((0,), ()), "1 role states for 2 roles"),
    (Configuration((0, 0), ()), "0 queues for 1 channels"),
    (Configuration((7, 0), ((),)), "role 'a' in state 7, which its machine lacks"),
    (Configuration((7, 7), ((),)), "role 'a' in state 7, which its machine lacks"),
], ids=["too-few-roles", "too-few-queues", "unknown-state", "unknown-states"])
def test_configuration_of_the_wrong_shape_is_rejected(cfg, mismatch):
    system = fixture_system("handshake.kmc")
    ((step, _),) = enabled_steps(system, initial_configuration(system), 1)
    with pytest.raises(ValueError, match=mismatch):
        enabled_steps(system, cfg, 1)
    with pytest.raises(ValueError, match=mismatch):
        apply_step(system, cfg, step, 1)
    with pytest.raises(ValueError, match=mismatch):  # a state no machine has is not final
        is_terminated(system, cfg)


def test_nodes_and_edges_are_the_id_ranges():
    system = fixture_system("fib.kmc")
    graph = build_bounded_graph(system, 2)
    n, m = len(graph.configs), len(graph.src)
    assert (graph.nodes, graph.edges) == (range(n), range(m)) and m > n > 2
    assert decode(graph).nodes[0] == initial_configuration(system)
