"""Bounded asynchronous execution: configurations, steps, reachability.

Roles run concurrently and exchange messages over one FIFO queue per ordered
role pair.  A send appends to the queue towards the peer and is enabled only
while that queue holds fewer than `k` messages; a receive pops the head of
the queue from the peer when label and sort match.  What a transition does
to the queues (which queue, which message, push or pop) is decided in one
place, the system's `step_table`; `enabled_steps` is the only place that
applies the rule above to it: `apply_step`, `simulator.replay` and
`simulator.simulate` all take their steps from it.  `build_bounded_graph`
explores every interleaving under such a bound `k` breadth-first.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import Message, Step, System


@dataclass(frozen=True)
class Configuration:
    """A global snapshot: one machine state per role plus all queue contents.

    Both tuples follow the system's canonical order (`System.roles`,
    `System.channels`), so structural equality is configuration equality.
    """

    locals: tuple[int, ...]
    buffers: tuple[tuple[Message, ...], ...]


class ResourceExhausted(RuntimeError):
    """Exploration hit the configuration cap before exhausting the graph."""

    def __init__(self, configs_seen: int):
        super().__init__(f"exploration stopped after {configs_seen} configurations")
        self.configs_seen = configs_seen


def initial_configuration(system: System) -> Configuration:
    return Configuration(
        tuple(system.machines[r].initial for r in system.roles),
        tuple(() for _ in system.channels),
    )


def enabled_steps(
    system: System, cfg: Configuration, bound: int | None,
) -> list[tuple[Step, Configuration]]:
    """All steps enabled in `cfg`, with their successor configurations.

    Deterministically ordered: roles in system order, then each role's
    transitions in declaration order.  `bound` of None means queues are
    unbounded (sends are always enabled).  `system` must be valid
    (`validate_system` reports no errors).
    """
    out: list[tuple[Step, Configuration]] = []
    locals_, buffers = cfg.locals, cfg.buffers
    for ri, by_state in enumerate(system.step_table):
        for step, dst, ci, message, is_send in by_state.get(locals_[ri], ()):
            queue = buffers[ci]
            if is_send and (bound is None or len(queue) < bound):
                queue += (message,)
            elif not is_send and queue and queue[0] == message:
                queue = queue[1:]
            else:
                continue
            moved = list(locals_)
            moved[ri] = dst
            queues = list(buffers)
            queues[ci] = queue
            out.append((step, Configuration(tuple(moved), tuple(queues))))
    return out


def apply_step(
    system: System, cfg: Configuration, step: Step, bound: int | None,
) -> Configuration | None:
    """Successor of `cfg` after `step`, or None when `enabled_steps` does not
    offer the step (unknown role, no such transition, or not enabled).
    `system` must be valid (`validate_system` reports no errors)."""
    for enabled, nxt in enabled_steps(system, cfg, bound):
        if enabled == step:
            return nxt
    return None


@dataclass
class BoundedGraph:
    """Deduplicated reachability graph under a queue bound `k`.

    Nodes are numbered 0.. in breadth-first discovery order (0 is the initial
    configuration), which makes numbering and edge order deterministic; edges
    are listed source by source, in node order.
    `parent` records the discovery edge of each node, so following it back
    from any node replays one shortest derivation; `depth` is its length.
    """

    system: System
    k: int
    nodes: list[Configuration]
    edges: list[tuple[int, Step, int]]
    parent: list[tuple[int, Step] | None]
    depth: list[int]


def build_bounded_graph(
    system: System, k: int, max_configs: int = 1_000_000,
) -> BoundedGraph:
    """Breadth-first exploration of every configuration reachable under `k`.

    `system` must be valid (`validate_system` reports no errors): it is not
    checked here, since callers explore one system under several bounds;
    `check_kmc_detailed` checks it once.  Raises `ResourceExhausted` once
    more than `max_configs` distinct configurations would have to be kept.
    """
    if k < 1:
        raise ValueError("bound must be at least 1")
    init = initial_configuration(system)
    nodes = [init]
    index = {init: 0}
    parent: list[tuple[int, Step] | None] = [None]
    depth = [0]
    edges: list[tuple[int, Step, int]] = []
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for step, cfg in enabled_steps(system, nodes[u], k):
            v = index.get(cfg)
            if v is None:
                if len(nodes) >= max_configs:
                    raise ResourceExhausted(len(nodes))
                v = len(nodes)
                index[cfg] = v
                nodes.append(cfg)
                parent.append((u, step))
                depth.append(depth[u] + 1)
                queue.append(v)
            edges.append((u, step, v))
    return BoundedGraph(system, k, nodes, edges, parent, depth)
