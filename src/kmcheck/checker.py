"""Bounded compatibility checking.

A system is accepted at bound `k` when two facts hold over the k-bounded
reachability graph:

* send coverage -- wherever a role has a pending send, the *other* roles can
  always act (possibly not at all) until the target queue has room, so no
  send is starved by the bound itself;
* safety -- no role sits in a receive state forever (progress), and every
  queued message can still be consumed on some continuation (eventual
  reception).

The least such `k` is found by trying k = 1, 2, ... and stopping at the
first bound with full send coverage; its safety check then settles the
verdict.  A bound below the last only has to show whether it covers every
send, so its exploration stops at the first hopeless send: a full queue
whose receiver's machine has no path from its state to a receive on that
queue.  Only that receive makes room, so the send stays starved on every
continuation and the bound cannot cover (`semantics.HopelessSend`).  The
bound that settles the verdict never meets one, and the last bound, like
every bound whose safety findings are collected as hints, is explored in
full; so verdicts and statistics do not depend on the shortcut.

All three properties say "from every reachable configuration, some event
can still happen" (CTL `AG EF`), so one backward pass settles them all:
`BoundedGraph.reach` gives each node the events it can reach, as bits (its
docstring gives the layout and the pass), and whichever check reads it
first builds it.  The pass queues a node again only when it gains a bit, so
it pops a node at most once per event bit plus once and reads each edge as
often: O(2 * channels * edges) at worst, a channel being a pair some role
sends on (`System.channels`), and one or two pops per node on large safe
graphs.

The events are of one kind, a channel's head is consumed, in two flavours:
at all, and before the channel's sender moves.  A queued message is
eventually received where its channel's head can still be consumed.  A
role in a receive state leaves it only by a receive, which pops a channel
into that role, and only that role pops those channels; so the waiting
role has progress exactly where the head of some channel into it can still
be consumed.  Hence only a node whose bits lack some channel's first
flavour can witness a violation, unless some role can wait where no
channel leads in: that role is stuck wherever it waits.  A send can be
starved only at a candidate node, where the sender has a send on the
channel and its queue is full; the explorer lists them per channel.  Only a
receive on the channel makes room, and an edge of another role keeps the
sender's state and the full queue, so a candidate is met exactly when it
has its channel's second flavour of bit.  Both checks are iterative and
read the graph's columns (`BoundedGraph`) directly: the bit fields of each
configuration and the chain of edges into each node, which the explorer
links as it adds them.  Their scans compare packed codes only; a finding
is named once, at its witness, through `BoundedGraph.state` and `.queue`.
"""
from __future__ import annotations

import time
from dataclasses import astuple, dataclass

from .model import Action, System
from .semantics import (
    DEFAULT_MAX_CONFIGS,
    BoundedGraph,
    HopelessSend,
    Step,
    build_bounded_graph,
)

DEFAULT_MAX_BOUND = 10


@dataclass(slots=True, unsafe_hash=True)
class ProgressViolation:
    """`role` can end up parked in receive state `state` with no way on."""

    role: str
    state: int


@dataclass(slots=True, unsafe_hash=True)
class EventualReceptionViolation:
    """A `label`/`sort` message from `sender` can rot unread in `receiver`'s queue."""

    sender: str
    receiver: str
    label: str
    sort: str


@dataclass(slots=True, unsafe_hash=True)
class Violation:
    kind: ProgressViolation | EventualReceptionViolation
    witness: int
    trace: tuple[Step, ...]


@dataclass(slots=True, unsafe_hash=True)
class CheckStats:
    configurations: int
    edges: int
    bounds_tried: tuple[int, ...]
    elapsed_ms: int


@dataclass(slots=True, unsafe_hash=True)
class Safe:
    k: int


@dataclass(slots=True, unsafe_hash=True)
class Unsafe:
    k: int
    violations: tuple[Violation, ...]


@dataclass(slots=True, unsafe_hash=True)
class Inconclusive:
    max_bound: int
    note: str
    # safety findings from bounds without full send coverage; suggestive only
    bounded: tuple[tuple[int, Violation], ...] = ()


Verdict = Safe | Unsafe | Inconclusive


@dataclass(slots=True, unsafe_hash=True)
class CheckOutcome:
    verdict: Verdict
    stats: CheckStats


def extract_trace(graph: BoundedGraph, node: int) -> tuple[Step, ...]:
    """One shortest derivation of `node` from the initial configuration.
    Raises `IndexError` when the graph has no node `node`.

    Each step back takes the oldest edge into the node, the last link of
    its chain, which discovered it from a node of smaller id."""
    if not 0 <= node < len(graph.configs):
        raise IndexError(f"node {node} is not in the graph of {len(graph.configs)} nodes")
    src, step_id, steps, last_in, prev_in = (
        graph.src, graph.step_id, graph.steps, graph.last_in, graph.prev_in)
    trace: list[Step] = []
    while node:
        e = last_in[node]
        while prev_in[e] >= 0:
            e = prev_in[e]
        trace.append(steps[step_id[e]])
        node = src[e]
    trace.reverse()
    return tuple(trace)


def check_exhaustive(
    system: System, graph: BoundedGraph,
) -> tuple[tuple[int, str, Action], ...]:
    """Send obligations the bound starves, as (node, role, action) triples.

    An obligation is met when the other roles can step (zero or more times)
    from the node to somewhere the send's target queue has room.  Only a
    node where that queue is full, a candidate (`graph.blocked`), can leave
    a send starved, and it is met exactly when `graph.reach` gives it its
    channel's coverage bit: the head consumed before the sender moves.
    Obligations come by channel, in sender order and then by peer name,
    then by candidate in node order, then by send in declaration order: the
    rows of the sender's state there in `graph.system.step_table` that send
    on the channel.  An empty result means the graph accounts for every
    send at this bound.  The `system` argument is not read: the answer is
    about `graph.system`, the system whose steps label the edges.
    """
    system = graph.system
    configs, reach = graph.configs, graph.reach
    covered = len(system.channels)  # channel 0's coverage bit
    obligations: list[tuple[int, str, Action]] = []
    # the channels with candidates, by sender in role order, then by peer name
    order = sorted((system.role_index[sender], peer, j)
                   for j, (sender, peer) in enumerate(system.channels) if graph.blocked[j])
    for ri, _, j in order:
        role, by_state, bit = system.roles[ri], system.step_table[ri], 1 << (covered + j)
        for i in graph.blocked[j]:
            if not reach[i] & bit:
                obligations.extend(
                    (i, role, step.action)
                    for step, _, ci, _, is_send in by_state[graph.state(configs[i], ri)]
                    if is_send and ci == j)
    return tuple(obligations)


def check_safety(system: System, graph: BoundedGraph) -> tuple[Violation, ...]:
    """Progress and eventual-reception violations over the bounded graph.

    Witnesses are minimised: one violation per (kind, role or channel, local
    state) at the smallest BFS depth, each carrying a replayable shortest
    trace.  An empty result means the system is safe at this bound.  The
    `system` argument is not read: the answer is about `graph.system`, the
    system whose steps label the edges.
    """
    system = graph.system
    roles, channels, configs, reach = system.roles, system.channels, graph.configs, graph.reach

    # The scan reads codes only.  Per role: `moves`, the consumed-head bits
    # of the channels into it (a role in a receive state moves on only by
    # popping one of them, and only it pops them), its field and the codes
    # of its receive states (a state is one when its first transition is a
    # receive).  A node where every channel's head can still be consumed
    # then holds no violation, unless a role can wait where no channel leads
    # in: then `full` is -1, which no node's bits match, and every node is
    # read.  Per channel: its queue field and the receiver's field.
    full = (1 << len(channels)) - 1
    role_rows = []
    for ri, (role, by_state, states, (shift, mask)) in enumerate(
            zip(roles, system.step_table, graph.states, graph.role_fields)):
        receiving = {code for code, state in enumerate(states)
                     if (rows := by_state.get(state)) and not rows[0][4]}
        moves = sum(1 << j for j, (_, peer) in enumerate(channels) if peer == role)
        if receiving and not moves:
            full = -1
        role_rows.append((ri, moves, shift, mask, receiving))
    channel_rows = []
    for j, (_, receiver) in enumerate(channels):
        shift, b = graph.queue_fields[j]
        channel_rows.append((j, shift, (2 << graph.k * b) - 1,
                             *graph.role_fields[system.role_index[receiver]]))
    # A key is (role index, state code) for progress and (~channel, the
    # receiver's state code) for reception.  Nodes are numbered in BFS
    # order, so the first witness of a key is at its smallest depth.
    best: dict[tuple[int, int], int] = {}
    for i, bits in enumerate(reach):
        if bits & full == full:
            continue
        cfg = configs[i]
        for ri, moves, shift, mask, receiving in role_rows:
            if not bits & moves and (code := cfg >> shift & mask) in receiving:
                best.setdefault((ri, code), i)
        for j, shift, field, peer_shift, peer_mask in channel_rows:
            # the sentinel alone is the empty queue
            if not bits >> j & 1 and cfg >> shift & field > 1:
                best.setdefault((~j, cfg >> peer_shift & peer_mask), i)

    # Each key is named once, at its first witness: the waiting role's
    # state, or the channel and the message at its head.
    violations = []
    for (index, _), node in best.items():
        cfg = configs[node]
        kind = (ProgressViolation(roles[index], graph.state(cfg, index)) if index >= 0 else
                EventualReceptionViolation(*channels[~index], *graph.queue(cfg, ~index)[0]))
        violations.append(Violation(kind, node, extract_trace(graph, node)))
    # witness ids follow BFS order, so a trace is never shorter than an
    # earlier witness's
    violations.sort(key=lambda v: (
        v.witness, v.kind.__class__.__name__, tuple(str(x) for x in astuple(v.kind))))
    return tuple(violations)


def check_kmc_detailed(
    system: System,
    max_bound: int = DEFAULT_MAX_BOUND,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    collect_bounded: bool = False,
) -> CheckOutcome:
    """Search k = 1..max_bound for the least bound with full send coverage
    and settle the verdict there.

    Returns the verdict together with exploration statistics for the bound
    that settled it (or the last bound tried, when inconclusive).  With
    `collect_bounded`, safety findings from non-covering bounds are attached
    to an inconclusive verdict as unverified hints.  `ResourceExhausted`
    comes from the first bound whose exploration outgrows `max_configs`; a
    bound that stops at a hopeless send first does not.  A system that
    `validate_system` reports errors for raises `ValueError`; lints pass.
    """
    if max_bound < 1:
        raise ValueError("max_bound must be at least 1")
    started = time.perf_counter()
    hints: dict = {}  # violation kind -> (the first bound that found it, violation)
    for k in range(1, max_bound + 1):
        try:
            # below the last bound, and without hints to collect, a bound
            # only has to show whether it covers every send
            graph = build_bounded_graph(system, k, max_configs,
                                        stop_at_hopeless=k < max_bound and not collect_bounded)
        except HopelessSend:
            continue
        size = (len(graph.configs), len(graph.src))
        obligations = check_exhaustive(system, graph)
        if not obligations:
            violations = check_safety(system, graph)
            verdict = Unsafe(k, violations) if violations else Safe(k)
            break
        if collect_bounded:
            for v in check_safety(system, graph):
                hints.setdefault(v.kind, (k, v))
        del graph  # the next bound's graph is built without this one held
    else:
        node, role, action = obligations[0]
        note = (
            f"no bound up to {max_bound} accounts for every send: at k={max_bound}, "
            f"{len(obligations)} pending send(s) stay blocked "
            f"(first: {role} cannot fire {action} at node {node})")
        verdict = Inconclusive(max_bound, note, tuple(hints.values()))
    stats = CheckStats(*size, tuple(range(1, k + 1)), _ms(started))
    return CheckOutcome(verdict, stats)


def _ms(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def check_kmc(
    system: System,
    max_bound: int = DEFAULT_MAX_BOUND,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> Verdict:
    """Least-bound compatibility verdict; see `check_kmc_detailed`."""
    return check_kmc_detailed(system, max_bound, max_configs).verdict
