"""Bounded asynchronous execution: configurations, steps, reachability.

Roles run concurrently and exchange messages over FIFO queues, one per
channel: a (sender, receiver) pair that some role sends on
(`System.channels`).  A send appends to the queue towards the peer and is
enabled only while that queue holds fewer than `k` messages; a receive pops
the head of the queue from the peer when label and sort match, so a receive
on a pair without a queue is never enabled.  What a transition does to the
queues (which queue, which message, push or pop) is decided in one place,
the system's `step_table`.  `enabled_steps` applies the rule above to it
over `Configuration`s: `apply_step`, `simulator.replay` and
`simulator.simulate` all take their steps from it.

`build_bounded_graph` explores every interleaving under such a bound `k`
breadth-first in a packed layout derived from the same table: a
configuration is one int of bit fields, one per role (the index of its state
among the machine's sorted states) and one per channel.  A queue field holds
its messages' codes under a sentinel bit, the head lowest, so a step adds a
precomputed delta to the int and allocates no container.
One lookup per block of roles yields the transitions of all of them.  The
explorer takes exactly the steps `enabled_steps` offers, in the same order.

In the same pass it records what the checks read, in `array('i')` columns:
each edge's source and step id, grouped by source; a chain through the
edges into each node, for the backward pass (`BoundedGraph.reach`) and,
through its oldest link, the edge that discovered the node; and the nodes
where a send found its queue full, per channel.  `BoundedGraph.nodes` and
`.edges` are the ids the columns are indexed by.  On request it stops
instead at the first node where a send finds its queue full and the
receiver can never receive on it again (`HopelessSend`): such a bound
leaves a send starved.
"""
from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .model import Message, Step, System

DEFAULT_MAX_CONFIGS = 1_000_000  # the cap on configurations kept per bound


@dataclass(slots=True, unsafe_hash=True)
class Configuration:
    """A global snapshot: one machine state per role plus each channel's queue.

    Both tuples follow the system's canonical order (`System.roles`,
    `System.channels`, the pairs some role sends on), so structural equality
    is configuration equality.
    """

    locals: tuple[int, ...]
    buffers: tuple[tuple[Message, ...], ...]


class ResourceExhausted(RuntimeError):
    """Exploration at bound `k` hit the configuration cap `cap` before
    exhausting the graph, with `configs_seen` configurations kept."""

    def __init__(self, configs_seen: int, k: int, cap: int):
        super().__init__(f"exploration at k={k} stopped after {configs_seen} "
                         f"configurations (cap {cap})")
        self.configs_seen = configs_seen
        self.k = k
        self.cap = cap


class HopelessSend(Exception):
    """Exploration at bound `k` met node `node`, where a send on `channel`
    (a (sender, receiver) pair) finds the queue full and the receiver's
    machine has no path from its state to a receive on the channel.  Only
    that receive makes room, so the queue stays full on every continuation
    and the bound leaves the send starved.  `configs_seen` configurations
    had been kept."""

    def __init__(self, node: int, channel: tuple[str, str], k: int, configs_seen: int):
        super().__init__(f"exploration at k={k} stopped at node {node}: the queue "
                         f"{channel[0]}->{channel[1]} stays full for good")
        self.node = node
        self.channel = channel
        self.k = k
        self.configs_seen = configs_seen


def initial_configuration(system: System) -> Configuration:
    queues = tuple(() for _ in system.channels)  # the validity gate comes first
    return Configuration(tuple(system.machines[r].initial for r in system.roles), queues)


def _fitted_step_table(system: System, cfg: Configuration):
    """`system.step_table`, once `cfg` fits `system` as `enabled_steps` requires."""
    table = system.step_table  # the validity gate, before `cfg` is read
    if len(cfg.locals) != len(system.roles):
        raise ValueError(f"configuration has {len(cfg.locals)} role states "
                         f"for {len(system.roles)} roles")
    if len(cfg.buffers) != len(system.channels):
        raise ValueError(f"configuration has {len(cfg.buffers)} queues "
                         f"for {len(system.channels)} channels")
    for role, state in zip(system.roles, cfg.locals):
        if state not in system.machines[role].states:
            raise ValueError(f"configuration puts role '{role}' in state {state}, "
                             "which its machine lacks")
    return table


def enabled_steps(
    system: System, cfg: Configuration, bound: int | None,
) -> list[tuple[Step, Configuration]]:
    """All steps enabled in `cfg`, with their successor configurations.

    Deterministically ordered: roles in system order, then each role's
    transitions in declaration order.  `bound` of None means queues are
    unbounded (sends are always enabled).  Raises `ValueError` on a `bound`
    below 1, and when `cfg` does not fit `system`: a state count other than
    the role count, a queue count other than the channel count, or a state
    its role's machine lacks.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1")
    out: list[tuple[Step, Configuration]] = []
    locals_, buffers = cfg.locals, cfg.buffers
    for ri, by_state in enumerate(_fitted_step_table(system, cfg)):
        for step, dst, ci, message, is_send in by_state.get(locals_[ri], ()):
            if ci is None:  # a receive on a pair nobody sends on
                continue
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
    Raises `ValueError` as `enabled_steps` does, on a `bound` below 1 or a
    `cfg` that does not fit `system`."""
    for enabled, nxt in enabled_steps(system, cfg, bound):
        if enabled == step:
            return nxt
    return None


@dataclass
class BoundedGraph:
    """Deduplicated reachability graph under a queue bound `k`, in a packed
    layout the checks read directly.

    `configs[i]` is node `i` as one int of bit fields.  Role `ri` has the
    field `cfg >> shift & mask`, `(shift, mask) = role_fields[ri]`, holding
    its *state code*: the index of its state in `states[ri]` (the machine's
    states, sorted), so any int state id packs.  Channel `j`
    (`system.channels[j]`) has the `k * b + 1` bits from bit `shift` up,
    `(shift, b) = queue_fields[j]`: a sentinel 1 on top of the queued message
    codes, `b` bits each, the head lowest.  So the empty queue is 1 and a
    full one has bit `k * b` set.  `messages[j]` gives the (label, sort) of
    each of the channel's codes.  `state` and `queue` decode one field.

    `steps` maps a step id to its `Step` and `effects` to what `reach`
    reads of it, as (role index, channel, is_send).
    Edge `e` leaves `src[e]` by step `step_id[e]`.

    Nodes are numbered 0.. in breadth-first discovery order (0 is the initial
    configuration), which makes numbering and edge order deterministic; edges
    are listed source by source, in node order.

    The edges into each node form a chain, newest first: `last_in[v]` is
    the last edge into `v` and `prev_in[e]` the edge into the same target
    before `e` (-1 ends both).  The oldest edge into a node other than node
    0, the last link of its chain, discovered it; its source has a smaller
    id, so following these edges back from any node replays one shortest
    derivation.  `blocked[j]` lists, in node order, the nodes where the
    sender of channel `j` has a send on it and the queue is full.

    `reach` (the events each node can reach) is built from the chains on
    first access and then kept.  `nodes` and `edges` are the node and edge
    ids, `range`s over `configs` and over `src`.
    """

    system: System
    k: int
    configs: list[int]
    states: tuple[tuple[int, ...], ...]
    role_fields: tuple[tuple[int, int], ...]
    queue_fields: tuple[tuple[int, int], ...]
    messages: tuple[tuple[Message, ...], ...]
    steps: tuple[Step, ...]
    effects: tuple[tuple[int, int, bool], ...]
    blocked: tuple[array, ...]
    src: array
    step_id: array
    prev_in: array
    last_in: array

    @cached_property
    def reach(self) -> list[int]:
        """Per node, the events that some path from it reaches, as bits.

        With `C` channels, bit `j` is "the head of channel `j` is consumed"
        and bit `C + j`, `j`'s coverage bit, is "the head of channel `j` is
        consumed with no move by `j`'s sender before it".  A pop on `j` sets
        both of `j`'s bits and a send sets neither.  An edge of role `r`
        passes on every bit of its target but the coverage bits of the
        channels `r` sends on.

        One backward worklist over the chains, seeded with every node, ORs
        into each edge's source the edge's bits and those it passes on, and
        queues the source again when its bits grew, up to the fixpoint.
        """
        system = self.system
        c = len(system.channels)
        full = (1 << 2 * c) - 1
        own = [0] * len(system.roles)  # per role, the coverage bits of the channels it sends on
        for j, (sender, _) in enumerate(system.channels):
            own[system.role_index[sender]] |= 1 << (c + j)
        events = [0 if is_send else (1 | 1 << c) << j for _, j, is_send in self.effects]
        passes = [full ^ own[effect[0]] for effect in self.effects]

        n = len(self.configs)
        reach = [0] * n
        src, step_id, last_in, prev_in = self.src, self.step_id, self.last_in, self.prev_in
        work = array("i", range(n))  # a list would also hold an int object per node
        queued = bytearray(b"\1") * n
        pop, push = work.pop, work.append
        while work:
            v = pop()
            queued[v] = 0
            bits = reach[v]
            e = last_in[v]
            while e >= 0:
                u, sid = src[e], step_id[e]
                old = reach[u]
                new = events[sid] | bits & passes[sid] | old
                if new != old:
                    reach[u] = new
                    if not queued[u]:
                        queued[u] = 1
                        push(u)
                e = prev_in[e]
        return reach

    @property
    def nodes(self) -> range:
        return range(len(self.configs))

    @property
    def edges(self) -> range:
        return range(len(self.src))

    def state(self, cfg: int, ri: int) -> int:
        """The state of role `ri` in packed configuration `cfg`."""
        shift, mask = self.role_fields[ri]
        return self.states[ri][cfg >> shift & mask]

    def queue(self, cfg: int, j: int) -> tuple[Message, ...]:
        """The messages on channel `j` in packed configuration `cfg`,
        head first."""
        (shift, b), by_code = self.queue_fields[j], self.messages[j]
        q, head = cfg >> shift & ((2 << self.k * b) - 1), (1 << b) - 1
        queue = []
        while q > 1:  # above the head and every queued code sits the sentinel 1
            queue.append(by_code[q & head])
            q >>= b
        return tuple(queue)


BLOCK_BITS = 10  # the widest span of role fields that one lookup table covers


def _pack(system: System, k: int, configs: list[int] | None = None):
    """The packed layout under bound `k` (the `BoundedGraph` fields from
    `states` to `blocked`, in order; each `blocked` list still empty) and
    the successor groups `build_bounded_graph` fires, both derived from
    `system.step_table`.  Given `configs`, the list the explorer fills, a
    full queue whose receiver can never receive on it again raises
    `HopelessSend` (see `_hopeless_note`).

    The groups of role `ri` in the state of code `c` are `groups[ri][c]`:
    each maximal run of the state's transitions on one channel is one
    (is_send, shift, field mask, limit, b, rows, note) group; shift and
    field mask locate the channel's field.  A send group fires its rows,
    (role delta, push, step id), in declaration order while the field is
    below `limit`, its full value; pushing on top of the sentinel at bit `n`
    adds `push << n`, which writes the code and moves the sentinel `b` bits
    up.  When the field is full, `note` (the channel's `blocked` list's
    append or its `_hopeless_note`, None on a later run on the same channel)
    records the node.
    A receive group's rows map a head code (the field's bits under `limit`)
    to the one row that pops it, (role delta, 0, step id); a valid state
    receives each message from a peer at most once, so one lookup keeps
    declaration order.  A receive on a pair nobody sends on (channel None)
    never fires and gets no row.
    """
    table = system.step_table
    codes: list[dict[Message, int]] = [{} for _ in system.channels]
    for by_state in table:
        for rows in by_state.values():
            for _, _, j, message, _ in rows:
                if j is not None:
                    codes[j].setdefault(message, len(codes[j]))
    states = tuple(tuple(sorted(system.machines[r].states)) for r in system.roles)
    role_fields, queue_fields, shift = [], [], 0
    for by_code in states:
        width = (len(by_code) - 1).bit_length()
        role_fields.append((shift, (1 << width) - 1))
        shift += width
    for by_message in codes:
        b = max(1, (len(by_message) - 1).bit_length())
        queue_fields.append((shift, b))
        shift += k * b + 1
    blocked = tuple(array("i") for _ in codes)
    notes = [by_node.append for by_node in blocked]
    if configs is not None:
        for j, hopeless in _hopeless(system, states).items():
            ri = system.role_index[system.channels[j][1]]
            notes[j] = _hopeless_note(notes[j], configs, role_fields[ri], hopeless,
                                      system.channels[j], k)

    # per channel: the first five group items of a receive and of a
    # send run, and what a push adds to a code to move the sentinel up
    heads = [((False, shift, (2 << k * b) - 1, (1 << b) - 1, b),
              (True, shift, (2 << k * b) - 1, 1 << k * b, b)) for shift, b in queue_fields]
    bumps = [(1 << b) - 1 for _, b in queue_fields]
    steps: list[Step] = []
    effects = []
    groups = []
    for ri, by_state in enumerate(table):
        role_shift = role_fields[ri][0]
        code_of = dict(zip(states[ri], range(len(states[ri]))))
        by_code: list = [()] * len(states[ri])
        for state, rows in by_state.items():
            src = code_of[state]
            here, noted, last = [], set(), None
            for step, dst, j, message, is_send in rows:
                if j is None:
                    continue
                code = codes[j][message]
                sid = len(steps)
                steps.append(step)
                effects.append((ri, j, is_send))
                delta = (code_of[dst] - src) << role_shift
                if j != last:  # a new run
                    last, run, note = j, [] if is_send else {}, None
                    if is_send and j not in noted:
                        noted.add(j)
                        note = notes[j]
                    here.append(heads[j][is_send] + (run, note))
                if is_send:
                    run.append((delta, code + bumps[j], sid))
                else:
                    run[code] = ((delta, 0, sid),)
            by_code[src] = tuple(here)
        groups.append(by_code)
    layout = (states, tuple(role_fields), tuple(queue_fields),
              tuple(tuple(by_message) for by_message in codes), tuple(steps), tuple(effects),
              blocked)
    return layout, tuple(groups)


def _hopeless(system: System, states: tuple[tuple[int, ...], ...]) -> dict[int, set[int]]:
    """Per channel whose receiver has states with no path to a receive on
    it, the codes of those states (indices into `states[ri]`).  The
    backward walk over the receiver's transitions runs only for a channel
    that some state of the receiver does not receive on."""
    table, hopeless = system.step_table, {}
    by_receiver: dict[int, list[int]] = {}
    for j, (_, receiver) in enumerate(system.channels):
        by_receiver.setdefault(system.role_index[receiver], []).append(j)
    for ri, channels in by_receiver.items():
        receiving: dict[int, set[int]] = {j: set() for j in channels}
        for state, rows in table[ri].items():
            for _, _, j, _, is_send in rows:
                if not is_send and j is not None:
                    receiving[j].add(state)
        preds: dict[int, list[int]] = {}
        for j, can in receiving.items():
            if len(can) == len(states[ri]):
                continue  # every state receives on j
            if not preds:
                for state, rows in table[ri].items():
                    for row in rows:
                        preds.setdefault(row[1], []).append(state)
            work = list(can)
            for state in work:
                for p in preds.get(state, ()):
                    if p not in can:
                        can.add(p)
                        work.append(p)
            codes = {c for c, state in enumerate(states[ri]) if state not in can}
            if codes:
                hopeless[j] = codes
    return hopeless


def _hopeless_note(append, configs: list[int], field: tuple[int, int], hopeless: set[int],
                   channel: tuple[str, str], k: int) -> Callable[[int], None]:
    """A channel's `note`: records node `u` with `append`, unless the
    receiver's state code there (`field` locates it) is in `hopeless`, the
    codes of the states with no path to a receive on the channel: then the
    queue stays full for good, and it raises `HopelessSend`."""
    shift, mask = field

    def note(u: int) -> None:
        if configs[u] >> shift & mask in hopeless:
            raise HopelessSend(u, channel, k, len(configs))
        append(u)

    return note


def _blocks(role_fields, groups) -> list[tuple[int, int, Sequence]]:
    """One (shift, mask, table) lookup per block of consecutive roles that
    have transitions, each block spanning at most `BLOCK_BITS` bits of role
    fields (or one role): `table[cfg >> shift & mask]` holds the groups of
    every role in the block, in role order, for the block's field value.
    So the blocks fire the same groups as the roles one by one."""
    roles = [(shift, mask, by_code)
             for (shift, mask), by_code in zip(role_fields, groups) if any(by_code)]
    blocks = []
    while roles:
        start = roles[0][0]
        n = 1
        while n < len(roles) and roles[n][0] + roles[n][1].bit_length() - start <= BLOCK_BITS:
            n += 1
        block, roles = roles[:n], roles[n:]
        if n == 1:
            blocks.append(block[0])
            continue
        width = block[-1][0] + block[-1][1].bit_length() - start
        table = []
        for value in range(1 << width):
            row = ()
            for shift, mask, by_code in block:
                code = value >> (shift - start) & mask
                if code < len(by_code):  # larger codes name no state and never occur
                    row += by_code[code]
            table.append(row)
        blocks.append((start, (1 << width) - 1, table))
    return blocks


def build_bounded_graph(
    system: System, k: int, max_configs: int = DEFAULT_MAX_CONFIGS, *,
    stop_at_hopeless: bool = False,
) -> BoundedGraph:
    """Breadth-first exploration of every configuration reachable under `k`.

    Takes the same steps as `enabled_steps`, in the same order.  Raises
    `ResourceExhausted` once more than `max_configs` distinct
    configurations would have to be kept.  With `stop_at_hopeless`, raises
    `HopelessSend` at the first node where a send finds its queue full and
    the receiver can never receive on that channel again: such a bound
    cannot account for every send (`checker.check_exhaustive` would list
    the node), so a caller that only asks whether it can stops there.
    """
    if k < 1:
        raise ValueError("bound must be at least 1")
    if max_configs < 1:
        raise ValueError("max_configs must be at least 1")
    configs: list[int] = []
    layout, groups = _pack(system, k, configs if stop_at_hopeless else None)
    states, role_fields, queue_fields = layout[:3]
    init = sum(by_code.index(system.machines[r].initial) << shift
               for r, by_code, (shift, _) in zip(system.roles, states, role_fields))
    init += sum(1 << shift for shift, _ in queue_fields)
    configs.append(init)
    seen = {init: 0}
    src, step_id, prev_in = array("i"), array("i"), array("i")
    last_in = array("i", [-1])
    blocks = _blocks(role_fields, groups)
    claim, add_src, add_step, add_prev = seen.setdefault, src.append, step_id.append, prev_in.append
    n, e = 1, 0
    for u, cfg in enumerate(configs):  # nodes are expanded in discovery order
        for shift, mask, table in blocks:
            for is_send, field_shift, field_mask, limit, b, rows, note in table[cfg >> shift & mask]:
                q = cfg >> field_shift & field_mask
                if is_send:
                    if q >= limit:  # full
                        if note is not None:
                            note(u)
                        continue
                    base, at = cfg, field_shift + q.bit_length() - 1
                else:
                    if q <= limit:  # empty
                        continue
                    rows = rows.get(q & limit)
                    if rows is None:
                        continue
                    base, at = cfg - ((q - (q >> b)) << field_shift), 0
                for delta, push, sid in rows:
                    nxt = base + delta + (push << at)
                    v = claim(nxt, n)
                    if v == n:
                        if n >= max_configs:
                            raise ResourceExhausted(n, k, max_configs)
                        n += 1
                        configs.append(nxt)
                        last_in.append(-1)
                    add_prev(last_in[v])
                    last_in[v] = e
                    add_src(u)
                    add_step(sid)
                    e += 1
    return BoundedGraph(system, k, configs, *layout, src, step_id, prev_in, last_in)
