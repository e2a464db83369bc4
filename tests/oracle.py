"""Brute-force reference results for the checker tests.

Everything here is deliberately naive and kept independent of the package's
semantics and checker modules: configurations are re-modelled from scratch
(roles and channels in sorted-name order rather than declaration order),
successors are enumerated by a different traversal, and each condition is a
whole-graph fixpoint sweep with no worklists and no reverse adjacency.
Slow, small, and easy to believe -- which is the point.

The last sections keep two implementations the package replaced, for the
differential tests: the term-rewriting local type compiler, and the explorer
over full-width configurations (which takes its steps from the package's
`enabled_steps`, the one step rule the compact explorer must agree with).
Between them sit what only tests read: machine isomorphism and rendering a
machine back to text, for the round-trip tests, and `local_fingerprint`, a
summary of what each role does in a graph.  Last comes `decode`, the one
reader that turns a packed `BoundedGraph` into the reference explorer's
layout: every test that looks at a graph's configurations, steps or parents
reads them through it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from kmcheck.model import (
    Action,
    Branch,
    Choice,
    Direction,
    End,
    LocalType,
    Machine,
    RecBinder,
    RecVar,
    Step,
    System,
)
from kmcheck.semantics import Configuration, enabled_steps, initial_configuration

Cfg = tuple  # ((state, ...), ((msg, ...), ...)) in sorted-role order


class Blowup(Exception):
    """The bounded exploration outgrew the configured cap."""


def _order(system: System) -> list[str]:
    return sorted(system.roles)


def _chans(system: System) -> list[tuple[str, str]]:
    return sorted((p, q) for p in system.roles for q in system.roles if p != q)


def initial_cfg(system: System) -> Cfg:
    order = _order(system)
    return (
        tuple(system.machines[r].initial for r in order),
        tuple(() for _ in _chans(system)),
    )


def successors(system: System, cfg: Cfg, k: int):
    order = _order(system)
    chans = _chans(system)
    ridx = {r: i for i, r in enumerate(order)}
    cidx = {c: i for i, c in enumerate(chans)}
    locs, bufs = cfg
    out = []
    # receives first, channel by channel
    for ci, (p, q) in enumerate(chans):
        if not bufs[ci]:
            continue
        head = bufs[ci][0]
        for a, dst in system.machines[q].outgoing(locs[ridx[q]]):
            if (a.direction is Direction.RECEIVE and a.peer == p
                    and (a.label, a.sort) == head):
                locs2 = list(locs)
                locs2[ridx[q]] = dst
                bufs2 = list(bufs)
                bufs2[ci] = bufs[ci][1:]
                out.append((q, a, (tuple(locs2), tuple(bufs2))))
    # then sends, role by role
    for p in order:
        for a, dst in system.machines[p].outgoing(locs[ridx[p]]):
            if a.direction is Direction.SEND:
                ci = cidx[(p, a.peer)]
                if len(bufs[ci]) < k:
                    locs2 = list(locs)
                    locs2[ridx[p]] = dst
                    bufs2 = list(bufs)
                    bufs2[ci] = bufs[ci] + ((a.label, a.sort),)
                    out.append((p, a, (tuple(locs2), tuple(bufs2))))
    return out


def explore(system: System, k: int, cap: int = 200_000):
    """Every configuration reachable under bound `k`, with its successors."""
    graph: dict[Cfg, list] = {}
    stack = [initial_cfg(system)]
    while stack:
        cfg = stack.pop()
        if cfg in graph:
            continue
        if len(graph) >= cap:
            raise Blowup(len(graph))
        succ = successors(system, cfg, k)
        graph[cfg] = succ
        for _, _, nxt in succ:
            if nxt not in graph:
                stack.append(nxt)
    return graph


def bfs_depths(system: System, graph) -> dict[Cfg, int]:
    depths = {initial_cfg(system): 0}
    frontier = [initial_cfg(system)]
    while frontier:
        nxt = []
        for cfg in frontier:
            for _, _, succ in graph[cfg]:
                if succ not in depths:
                    depths[succ] = depths[cfg] + 1
                    nxt.append(succ)
        frontier = nxt
    return depths


def _sweep(graph, seeds, may_follow):
    # cfg is good if it is a seed or some permitted edge leads to a good cfg;
    # iterate whole-graph passes until nothing changes (without seeds nothing
    # is good).  Passes run against discovery order, so goodness mostly
    # spreads back along a path in one pass.
    good = set(seeds)
    changed = bool(good)
    while changed:
        changed = False
        for cfg, edges in reversed(graph.items()):
            if cfg in good:
                continue
            if any(may_follow(role) and dst in good for role, _, dst in edges):
                good.add(cfg)
                changed = True
    return good


def unmet_obligations(system: System, k: int, graph):
    """Send actions that no amount of waiting on the others can enable."""
    order = _order(system)
    ridx = {r: i for i, r in enumerate(order)}
    cidx = {c: i for i, c in enumerate(_chans(system))}
    unmet = []
    for p in order:
        peers = sorted({a.peer for _, a, _ in system.machines[p].transitions
                        if a.direction is Direction.SEND})
        for q in peers:
            ci = cidx[(p, q)]
            room = [cfg for cfg in graph if len(cfg[1][ci]) < k]
            good = _sweep(graph, room, lambda role: role != p)
            for cfg in graph:
                if cfg in good:
                    continue
                for a, _ in system.machines[p].outgoing(cfg[0][ridx[p]]):
                    if a.direction is Direction.SEND and a.peer == q:
                        unmet.append((cfg, p, a))
    return unmet


def stuck_receivers(system: System, graph):
    """(cfg, role, state) where the role sits in a receive state forever."""
    order = _order(system)
    ridx = {r: i for i, r in enumerate(order)}
    stuck = []
    for p in order:
        seeds = [cfg for cfg, edges in graph.items() if any(r == p for r, _, _ in edges)]
        can_move = _sweep(graph, seeds, lambda role: True)
        m = system.machines[p]
        for cfg in graph:
            state = cfg[0][ridx[p]]
            out = m.outgoing(state)
            if out and out[0][0].direction is Direction.RECEIVE and cfg not in can_move:
                stuck.append((cfg, p, state))
    return stuck


def unreceived(system: System, graph):
    """(cfg, sender, receiver, label, sort) for messages that rot in a queue."""
    chans = _chans(system)
    rotten = []
    for ci, (p, q) in enumerate(chans):
        seeds = [
            cfg for cfg, edges in graph.items()
            if any(r == q and a.direction is Direction.RECEIVE and a.peer == p
                   for r, a, _ in edges)]
        consuming = _sweep(graph, seeds, lambda role: True)
        for cfg in graph:
            if cfg[1][ci] and cfg not in consuming:
                label, sort = cfg[1][ci][0]
                rotten.append((cfg, p, q, label, sort))
    return rotten


def oracle_verdict(system: System, max_bound: int, cap: int = 200_000) -> dict:
    """Classify a system by trying each bound from 1 up to `max_bound`.

    Returns a JSON-friendly dict: class ("safe" / "unsafe" / "inconclusive"),
    the bound it settled at (None when inconclusive), and for unsafe systems
    the sorted sets of stuck (role, state) pairs and rotten
    (sender, receiver, label, sort) tuples.
    """
    for k in range(1, max_bound + 1):
        graph = explore(system, k, cap)
        if unmet_obligations(system, k, graph):
            continue
        stuck = stuck_receivers(system, graph)
        rotten = unreceived(system, graph)
        if not stuck and not rotten:
            return {"class": "safe", "k": k, "progress": [], "er": []}
        return {
            "class": "unsafe",
            "k": k,
            "progress": sorted({(p, s) for _, p, s in stuck}),
            "er": sorted({(p, q, l, s) for _, p, q, l, s in rotten}),
        }
    return {"class": "inconclusive", "k": None, "progress": [], "er": []}


def min_stuck_depth(system: System, k: int, role: str) -> int:
    """Shortest distance to a configuration where `role` is stuck receiving."""
    graph = explore(system, k)
    depths = bfs_depths(system, graph)
    return min(depths[cfg] for cfg, p, _ in stuck_receivers(system, graph) if p == role)


def min_rotten_depth(system: System, k: int) -> int:
    """Shortest distance to a configuration holding an unreceivable message."""
    graph = explore(system, k)
    depths = bfs_depths(system, graph)
    return min(depths[cfg] for cfg, *_ in unreceived(system, graph))


def graph_counts(system: System, k: int, cap: int = 200_000) -> tuple[int, int]:
    graph = explore(system, k, cap)
    return len(graph), sum(len(edges) for edges in graph.values())


# --- reference local type compiler ------------------------------------------
#
# The term-rewriting compile that `model.local_type_to_machine` replaced:
# every closed term is rebuilt and compared as a whole dataclass tree, which
# costs time exponential in `rec` nesting and recurses once per action.  The
# differential tests compare machines from both, so only small types belong
# here.


def _close(t: LocalType, env: dict[str, LocalType | None]) -> LocalType:
    # Substitute every free recursion variable by its (already closed) binder
    # term.  Variables bound inside `t` map to None and stay put.
    if isinstance(t, End):
        return t
    if isinstance(t, RecVar):
        repl = env[t.var]
        return t if repl is None else repl
    if isinstance(t, RecBinder):
        return RecBinder(t.var, _close(t.body, {**env, t.var: None}))
    return Choice(tuple(Branch(b.action, _close(b.tail, env), b.span) for b in t.branches))


def _subst(t: LocalType, var: str, repl: LocalType) -> LocalType:
    if isinstance(t, RecVar):
        return repl if t.var == var else t
    if isinstance(t, RecBinder):
        if t.var == var:  # shadowed
            return t
        return RecBinder(t.var, _subst(t.body, var, repl))
    if isinstance(t, Choice):
        return Choice(
            tuple(Branch(b.action, _subst(b.tail, var, repl), b.span) for b in t.branches))
    return t


def _behaviour(t: LocalType) -> LocalType:
    # Unfold leading binders (`rec t. T` behaves as `T[t := rec t. T]`) until
    # an action choice or `end` surfaces.  Guarded recursion makes this
    # terminate; `t` must be closed, so no bare variable can surface.
    while isinstance(t, RecBinder):
        t = _subst(t.body, t.var, t)
    assert not isinstance(t, RecVar)
    return t


def reference_machine(lt: LocalType) -> Machine:
    """The machine of a well-formed local type: states are the distinct
    closed behaviours, numbered in depth-first order of first reachability."""
    root = _behaviour(_close(lt, {}))
    ids: dict[LocalType, int] = {}
    succ: list[list[tuple[Action, LocalType]]] = []
    stack = [root]
    while stack:
        t = stack.pop()
        if t in ids:
            continue
        ids[t] = len(succ)
        if isinstance(t, Choice):
            row = [(b.action, _behaviour(b.tail)) for b in t.branches]
        else:
            row = []
        succ.append(row)
        for _, nxt in reversed(row):
            if nxt not in ids:
                stack.append(nxt)

    transitions = tuple(
        (src, action, ids[nxt])
        for src, row in enumerate(succ)
        for action, nxt in row)
    return Machine(frozenset(range(len(succ))), 0, transitions)


def prefix(action: Action, tail: LocalType) -> Choice:
    """Single-action continuation, the common degenerate choice."""
    return Choice((Branch(action, tail),))


# --- isomorphism and rendering ----------------------------------------------
#
# What the round-trip tests compare machines and texts with.  No part of the
# package reads them.


def find_isomorphism(a: Machine, b: Machine) -> dict[int, int] | None:
    """State bijection making `b` identical to `a`, or None.

    Both machines must be deterministic with all states reachable, which
    makes the candidate mapping unique: pair the initials, then follow
    matching actions.
    """
    if len(a.states) != len(b.states) or len(a.transitions) != len(b.transitions):
        return None
    mapping = {a.initial: b.initial}
    queue = [a.initial]
    while queue:
        s = queue.pop()
        out_a, out_b = dict(a.outgoing(s)), dict(b.outgoing(mapping[s]))
        if out_a.keys() != out_b.keys():
            return None
        for act, dst in out_a.items():
            image = out_b[act]
            if dst not in mapping:
                mapping[dst] = image
                queue.append(dst)
            elif mapping[dst] != image:
                return None
    return mapping if len(mapping) == len(a.states) else None


def render_machine(machine: Machine) -> str:
    """The machine as local type text, in one walk.

    Each state that a cycle re-enters gets a ``rec t<id>.`` binder, so
    variable names are stable across renders of the same machine.  A state
    reached along several paths is written once per path, so the text can
    grow exponentially with shared sub-behaviour.  Nothing here recurses.
    """
    parts: list[str] = []
    binder: dict[int, int] = {}  # each state being written -> its binder's slot in `parts`
    stack: list = [machine.initial]  # a state to write, text, or a written state's (state,)
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, tuple):
            del binder[item[0]]
        elif item in binder:
            parts[binder[item]] = f"rec t{item}. "
            parts.append(f"t{item}")
        elif not (out := machine.outgoing(item)):
            parts.append("end")
        else:
            binder[item] = len(parts)
            parts.append("")
            opening, closing = ("{", "}") if len(out) > 1 else ("", "")
            stack.append((item,))
            for i, (action, dst) in reversed(tuple(enumerate(out))):
                stack += (closing, dst, f"{opening}{action}; ")
                if i:
                    stack.append(" or ")
    return "".join(parts)


def render_system(system: System) -> str:
    """Canonical text for a system: one declaration per role, in role order.

    Parsing the result yields a system whose machines are isomorphic to the
    originals, and rendering is idempotent on its own output.
    """
    return "".join(f"role {r}: {render_machine(system.machines[r])}\n" for r in system.roles)


# --- local fingerprints -----------------------------------------------------
#
# Kept with the tests that use it: no part of the package reads it.


def local_fingerprint(graph, role: str) -> frozenset:
    """What `role` can do anywhere in a `BoundedGraph`: its visited states,
    each paired with the set of actions it actually fires from that state.

    Stable fingerprints between bound k and k+1 are the telltale that the
    bound saturated the role's behaviour.  Read through `decode`.
    """
    ri = graph.system.roles.index(role)
    decoded = decode(graph)
    states = [cfg.locals[ri] for cfg in decoded.nodes]
    fired: dict[int, set[Action]] = {s: set() for s in states}
    for u, step, _ in decoded.edges:
        if step.role == role:
            fired[states[u]].add(step.action)
    return frozenset((s, frozenset(actions)) for s, actions in fired.items())


# --- reference explorer -----------------------------------------------------
#
# The breadth-first explorer that `semantics.build_bounded_graph` replaced:
# it keeps every configuration as a full-width `Configuration`, takes its
# steps from `enabled_steps` and lists edges as (src, step, dst) tuples.  The
# differential tests compare its nodes, edges and parents with those that
# `decode` reads off the compact explorer's columns, and read each node's BFS
# depth, which the compact graph does not keep, from it.


@dataclass
class ReferenceGraph:
    nodes: list[Configuration]
    edges: list[tuple[int, Step, int]]
    parent: list[tuple[int, Step] | None]
    depth: list[int]


def reference_graph(system: System, k: int) -> ReferenceGraph:
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
                v = len(nodes)
                index[cfg] = v
                nodes.append(cfg)
                parent.append((u, step))
                depth.append(depth[u] + 1)
                queue.append(v)
            edges.append((u, step, v))
    return ReferenceGraph(nodes, edges, parent, depth)


def decode(graph) -> ReferenceGraph:
    """A packed `BoundedGraph` in the reference explorer's layout.

    Each node is decoded field by field through `graph.state` and
    `graph.queue`, each edge's target is read off the chains of edges into
    each node (`last_in`, `prev_in`), and each parent off the oldest edge
    into a node other than node 0, the last link of its chain.  A depth is
    one more than its parent's, so a parent must come first.
    """
    system = graph.system
    nodes = [Configuration(tuple(graph.state(cfg, ri) for ri in range(len(system.roles))),
                           tuple(graph.queue(cfg, j) for j in range(len(system.channels))))
             for cfg in graph.configs]
    dst, oldest = [-1] * len(graph.src), [-1] * len(graph.configs)
    for v, e in enumerate(graph.last_in):
        while e >= 0:
            dst[e], oldest[v] = v, e
            e = graph.prev_in[e]
    edges = [(u, graph.steps[sid], v) for u, sid, v in zip(graph.src, graph.step_id, dst)]
    parent: list[tuple[int, Step] | None] = [None] + [edges[e][:2] for e in oldest[1:]]
    depth: list[int] = []
    for up in parent:
        depth.append(0 if up is None else depth[up[0]] + 1)
    return ReferenceGraph(nodes, edges, parent, depth)
