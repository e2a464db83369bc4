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

Both safety properties say "from every reachable configuration, some event
can still happen" (CTL `AG EF`), so one pass settles all of them.  Each edge
carries an event bitmask: one bit per role ("the role moves") and one per
channel ("the channel's head is consumed"), a channel being a pair some role
sends on (`System.channels`).  Each node starts with no bits, and one
backward worklist, seeded with every node, ORs each edge's bits and its
target's into the edge's source and queues that source again when its bits
grew.  At the fixpoint each node holds the OR over everything it can reach.
A node is queued again only when it gains a bit, so it is popped at most
once per event bit plus once, and each edge is read as often:
O((roles + channels) * edges) at worst, one or two pops per node on large
safe graphs.  Only configurations whose mask lacks some bit can witness a
violation.

Send coverage checks each channel on its own, but only where it can fail:
at candidate nodes, where the sender has a send on the channel and its
queue is full.  The explorer lists them as it meets them, per channel.
Among them the seeds are those where the receiver can pop the queue's head:
only that receive makes room, so the seeds are met in one step.  Backwards
from the seeds, one worklist over the edges of the other roles meets the
rest; such an edge keeps the sender's state and the full queue, so it only
ever meets candidates, and the walk stops once none is left unmet.  A
channel without candidates costs nothing.  Both checks are iterative and
read the graph's columns (`BoundedGraph`) directly: the bit fields of each
configuration, the edges grouped by source, and the chain of edges into
each node, which the explorer links as it adds them.
"""
from __future__ import annotations

import time
from array import array
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
    """One shortest derivation of `node` from the initial configuration."""
    src, step_id, steps, parent_edge = graph.src, graph.step_id, graph.steps, graph.parent_edge
    trace: list[Step] = []
    e = parent_edge[node]
    while e >= 0:
        trace.append(steps[step_id[e]])
        e = parent_edge[src[e]]
    trace.reverse()
    return tuple(trace)


def check_exhaustive(
    system: System, graph: BoundedGraph,
) -> tuple[tuple[int, str, Action], ...]:
    """Send obligations the bound starves, as (node, role, action) triples.

    An obligation is met when the other roles can step (zero or more times)
    from the node to somewhere the send's target queue has room.  An empty
    result means the graph accounts for every send at this bound.  The
    `system` argument is not read: the answer is about `graph.system`, the
    system whose steps label the edges.
    """
    system = graph.system
    configs, steps = graph.configs, graph.steps
    sends: dict[int, dict[int, list[Action]]] = {}  # channel -> state code -> sends
    pops: dict[int, set[int]] = {}  # channel -> receiver state code << b | head code
    for sid, (_, code, j, message, is_send) in enumerate(graph.effects):
        if is_send:
            sends.setdefault(j, {}).setdefault(code, []).append(steps[sid].action)
        else:
            pops.setdefault(j, set()).add(code << graph.queue_fields[j][1] | message)
    src, step_id, last_in, prev_in = graph.src, graph.step_id, graph.last_in, graph.prev_in
    movers = [effect[0] for effect in graph.effects]
    obligations: list[tuple[int, str, Action]] = []
    # the channels with candidates, by sender in role order, then by peer name
    order = sorted((system.role_index[sender], peer, j)
                   for j, (sender, peer) in enumerate(system.channels) if graph.blocked[j])
    for ri, peer, j in order:
        role = system.roles[ri]
        shift, mask = graph.role_fields[ri]
        by_code = sends[j]  # sends to the peer, by sender state code
        field_shift, b = graph.queue_fields[j]
        peer_shift, peer_mask = graph.role_fields[system.role_index[peer]]
        head, can_pop = (1 << b) - 1, pops.get(j, ())
        # Only a node where the queue to the peer is full can leave a send
        # starved; a node with room meets its obligation on the spot.  The
        # explorer lists these candidates.  Those where the peer can pop the
        # head are met in one step, since only that receive makes room: they
        # seed the walk.
        candidates = graph.blocked[j]
        work = [i for i in candidates
                if ((configs[i] >> peer_shift & peer_mask) << b
                    | configs[i] >> field_shift & head) in can_pop]
        unmet = len(candidates) - len(work)
        if not unmet:
            continue
        # Backwards from the seeds over the other roles' edges, until every
        # candidate is met.  Such an edge keeps the sender's state and leaves
        # the queue full, so every node met is a candidate.
        met = bytearray(len(configs))
        for v in work:
            met[v] = 1
        for v in work:
            e = last_in[v]
            while e >= 0:
                u = src[e]
                if not met[u] and movers[step_id[e]] != ri:
                    met[u] = 1
                    work.append(u)
                    unmet -= 1
                e = prev_in[e]
            if not unmet:
                break
        for i in candidates:
            if not met[i]:
                obligations.extend((i, role, a) for a in by_code[configs[i] >> shift & mask])
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
    roles, configs = system.roles, graph.configs
    n = len(configs)
    first = len(roles)
    # Event bits: bit r is "role r moves", and bit `first + j` is "the head
    # of channel j is consumed".
    full = (1 << (first + len(system.channels))) - 1
    events = [1 << ri | (0 if is_send else 1 << (first + j))
              for ri, _, j, _, is_send in graph.effects]

    reach = [0] * n
    # Backwards to the fixpoint: each node ends with the OR over all it
    # reaches.  A node is on the worklist at most once.
    src, step_id, last_in, prev_in = graph.src, graph.step_id, graph.last_in, graph.prev_in
    work = array("i", range(n))  # a list would also hold an int object per node
    queued = bytearray(b"\1") * n
    pop, push = work.pop, work.append
    while work:
        v = pop()
        queued[v] = 0
        bits = reach[v]
        e = last_in[v]
        while e >= 0:
            u = src[e]
            old = reach[u]
            new = events[step_id[e]] | bits | old
            if new != old:
                reach[u] = new
                if not queued[u]:
                    queued[u] = 1
                    push(u)
            e = prev_in[e]

    # Per role: its bit, field and the codes of its receive states (a state
    # is one when its first transition is a receive).  Per channel: its bit,
    # its queue field and head mask, and the receiver's field.
    states = graph.states
    role_rows = []
    for ri, (role, by_state, (shift, mask)) in enumerate(
            zip(roles, system.step_table, graph.role_fields)):
        receiving = {code for code, state in enumerate(states[ri])
                     if (rows := by_state.get(state)) and not rows[0][4]}
        role_rows.append((ri, role, shift, mask, receiving, states[ri]))
    channels = []
    for j, (sender, receiver) in enumerate(system.channels):
        (shift, b), qi = graph.queue_fields[j], system.role_index[receiver]
        channels.append((first + j, shift, (2 << graph.k * b) - 1, (1 << b) - 1,
                         *graph.role_fields[qi], states[qi], graph.messages[j],
                         sender, receiver))
    # Nodes are numbered in BFS order, so the first witness of a key is at
    # its smallest depth.
    best: dict[tuple, tuple[int, object]] = {}
    for i, bits in enumerate(reach):
        if bits == full:
            continue
        cfg = configs[i]
        for ri, role, shift, mask, receiving, role_states in role_rows:
            if not bits >> ri & 1:
                code = cfg >> shift & mask
                if code in receiving:
                    key = ("progress", role, role_states[code])
                    if key not in best:
                        best[key] = (i, ProgressViolation(role, role_states[code]))
        for bit, shift, field, head, peer_shift, peer_mask, peer_states, messages, \
                sender, receiver in channels:
            if not bits >> bit & 1:
                q = cfg >> shift & field
                if q > 1:  # the sentinel alone is the empty queue
                    key = ("reception", sender, receiver,
                           peer_states[cfg >> peer_shift & peer_mask])
                    if key not in best:
                        label, sort = messages[q & head]
                        best[key] = (i, EventualReceptionViolation(
                            sender, receiver, label, sort))

    violations = [
        Violation(kind, node, extract_trace(graph, node))
        for node, kind in best.values()]
    violations.sort(key=lambda v: (
        len(v.trace), v.witness, v.kind.__class__.__name__,
        tuple(str(x) for x in astuple(v.kind))))
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
