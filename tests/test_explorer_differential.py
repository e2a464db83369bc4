"""The compact explorer against the full-width reference in oracle.py: every
graph must have the same nodes, edges, parents and depths, numbering and edge
order included."""
from __future__ import annotations

import random
import sys
import time

import pytest

from kmcheck.dsl import parse_system
from kmcheck.semantics import build_bounded_graph

import oracle
from conftest import FIXTURES, HERE, fixture_system
from generators import random_system

sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402


def _agrees(system, k: int) -> None:
    graph = build_bounded_graph(system, k)
    ref = oracle.reference_graph(system, k)
    assert graph.nodes == ref.nodes
    assert graph.edges == ref.edges
    assert graph.parent == ref.parent
    assert graph.depth == ref.depth


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


@pytest.mark.parametrize("family, args", SMALL_FAMILY_MEMBERS,
                         ids=[f.__name__ for f, _ in SMALL_FAMILY_MEMBERS])
def test_small_family_graphs_match_reference(family, args):
    system = parse_system(workloads.make_case("small", family, args, 3, seed=5).text)
    for k in (1, 2, 3):
        _agrees(system, k)


def test_random_graphs_match_reference():
    rng = random.Random(2024)
    started = time.process_time()  # CPU seconds, unlike wall time immune to a busy host
    for _ in range(1000):
        system = random_system(rng, max_roles=4, max_states=6)
        for k in (1, 2, 3):
            _agrees(system, k)
    assert time.process_time() - started < 5.0
