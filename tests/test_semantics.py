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

from conftest import fixture_system
from oracle import reference_graph


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
    assert graph.nodes == ref.nodes
    assert graph.nodes[0] == initial_configuration(system)
    assert ref.depth == sorted(ref.depth)  # discovery in depth order
    assert graph.parent[0] is None
    for v in range(1, len(graph.nodes)):
        u, step = graph.parent[v]
        assert ref.depth[v] == ref.depth[u] + 1
        assert apply_step(system, graph.nodes[u], step, 1) == graph.nodes[v]


def test_every_edge_is_a_real_step():
    system = fixture_system("prefetch.kmc")
    graph = build_bounded_graph(system, 2)
    for u, step, v in graph.edges:
        assert apply_step(system, graph.nodes[u], step, 2) == graph.nodes[v]


def test_exploration_is_deterministic():
    system = fixture_system("fib.kmc")
    g1 = build_bounded_graph(system, 2)
    g2 = build_bounded_graph(system, 2)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges
    assert g1.parent == g2.parent


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
], ids=["too-few-roles", "too-few-queues", "unknown-state"])
def test_configuration_of_the_wrong_shape_is_rejected(cfg, mismatch):
    system = fixture_system("handshake.kmc")
    ((step, _),) = enabled_steps(system, initial_configuration(system), 1)
    with pytest.raises(ValueError, match=mismatch):
        enabled_steps(system, cfg, 1)
    with pytest.raises(ValueError, match=mismatch):
        apply_step(system, cfg, step, 1)


def test_graph_views_are_read_only_sequences():
    system = fixture_system("fib.kmc")
    graph = build_bounded_graph(system, 2)
    nodes, edges, parent = graph.nodes, graph.edges, graph.parent
    n, m = len(graph.configs), len(graph.src)
    assert (len(nodes), len(edges), len(parent)) == (n, m, n) and m > n > 2
    assert nodes[0] == initial_configuration(system)
    assert nodes[-1] == nodes[n - 1] and nodes[-n] == nodes[0]
    assert edges[-1] == edges[m - 1] and parent[-1] == parent[n - 1]
    assert parent[0] is None
    for view, size in ((nodes, n), (edges, m), (parent, n)):
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                view[i]
        items = list(view)
        assert len(items) == size and items == [view[i] for i in range(size)]
        assert view == items and items == view and view[1:3] == items[1:3]
        assert view != items[:-1] and view != tuple(items)
        with pytest.raises(TypeError):
            view[0] = items[0]
    assert graph.nodes == build_bounded_graph(system, 2).nodes
    assert graph.nodes != build_bounded_graph(system, 1).nodes
    u, step, v = edges[0]
    assert (u, v) == (graph.src[0], graph.dst[0]) and step is graph.steps[graph.step_id[0]]
