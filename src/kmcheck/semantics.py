"""Bounded asynchronous execution: configurations, steps, reachability.

Roles run concurrently and exchange messages over one FIFO queue per ordered
role pair.  A send appends to the queue towards the peer and is enabled only
while that queue holds fewer than `k` messages; a receive pops the head of
the queue from the peer when label and sort match.  What a transition does
to the queues (which queue, which message, push or pop) is decided in one
place, the system's `step_table`.  `enabled_steps` applies the rule above to
it over full-width `Configuration`s: `apply_step`, `simulator.replay` and
`simulator.simulate` all take their steps from it.

`build_bounded_graph` explores every interleaving under such a bound `k`
breadth-first in a flat layout derived from the same table: a configuration
is one tuple, the role states followed by one tuple of message ids per live
channel (one some machine sends on; every other channel stays empty and has
no slot), and the edges are three `array('i')` columns (source, step id,
target).  It takes exactly the steps `enabled_steps` offers, in the same
order; `BoundedGraph.nodes`, `.edges` and `.parent` show the graph in the
full-width layout.
"""
from __future__ import annotations

import operator
from array import array
from collections.abc import Callable, Iterator, Sequence
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
    """Exploration at bound `k` hit the configuration cap `cap` before
    exhausting the graph, with `configs_seen` configurations kept."""

    def __init__(self, configs_seen: int, k: int, cap: int):
        super().__init__(f"exploration at k={k} stopped after {configs_seen} "
                         f"configurations (cap {cap})")
        self.configs_seen = configs_seen
        self.k = k
        self.cap = cap


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


class _View(Sequence):
    """A read-only sequence of `length` items, each built by `item(i)` on
    access.  It equals a list or another view with equal items."""

    __slots__ = ("_length", "_item")

    def __init__(self, length: int, item: Callable[[int], object]):
        self._length = length
        self._item = item

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(self._length))]
        i = operator.index(i)
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("graph view index out of range")
        return self._item(i)

    def __iter__(self) -> Iterator:
        return map(self._item, range(self._length))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _View)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass
class BoundedGraph:
    """Deduplicated reachability graph under a queue bound `k`, in a compact
    layout the checks read directly.

    `configs[i]` is node `i` as one flat tuple: the role states in role
    order, then one tuple of message ids per live channel, the channel index
    of slot `len(system.roles) + j` being `live[j]`.  `messages` maps a
    message id to its (label, sort) and `steps` a step id to its `Step`.
    `rows[ri][state]` lists what role `ri` can do in `state`, in declaration
    order, as (slot, message id, is_send, target state, step id) rows.  Edge
    `e` runs from `src[e]` to `dst[e]` by step `step_id[e]`.

    Nodes are numbered 0.. in breadth-first discovery order (0 is the initial
    configuration), which makes numbering and edge order deterministic; edges
    are listed source by source, in node order.  `parent_edge[v]` is the
    edge that discovered `v` (-1 for node 0), so following it back from any
    node replays one shortest derivation; `depth` is its length.

    `nodes`, `edges` and `parent` are read-only views in the full-width
    layout of `enabled_steps`: a `Configuration`, a (src, Step, dst) triple
    and a (src, Step) pair or None, each built anew on every access.
    """

    system: System
    k: int
    configs: list[tuple]
    live: tuple[int, ...]
    messages: tuple[Message, ...]
    steps: tuple[Step, ...]
    rows: tuple[dict[int, tuple[tuple[int, int, bool, int, int], ...]], ...]
    src: array
    step_id: array
    dst: array
    parent_edge: array
    depth: list[int]

    @property
    def nodes(self) -> Sequence[Configuration]:
        return _View(len(self.configs), self._configuration)

    @property
    def edges(self) -> Sequence[tuple[int, Step, int]]:
        return _View(len(self.src), self._edge)

    @property
    def parent(self) -> Sequence[tuple[int, Step] | None]:
        return _View(len(self.configs), self._parent)

    def _configuration(self, i: int) -> Configuration:
        cfg = self.configs[i]
        first = len(self.system.roles)
        queues = [()] * len(self.system.channels)
        for slot, ci in enumerate(self.live, first):
            queues[ci] = tuple(self.messages[m] for m in cfg[slot])
        return Configuration(cfg[:first], tuple(queues))

    def _edge(self, e: int) -> tuple[int, Step, int]:
        return (self.src[e], self.steps[self.step_id[e]], self.dst[e])

    def _parent(self, v: int) -> tuple[int, Step] | None:
        e = self.parent_edge[v]
        return None if e < 0 else (self.src[e], self.steps[self.step_id[e]])


def _compact_rows(system: System):
    """(live, messages, steps, rows) of `BoundedGraph`, derived from
    `system.step_table`.  A live channel is one some machine sends on; every
    other channel stays empty, so a receive on it never fires and gets no
    row."""
    table = system.step_table
    live = tuple(sorted({ci for by_state in table for rows in by_state.values()
                         for _, _, ci, _, is_send in rows if is_send}))
    slot_of = {ci: slot for slot, ci in enumerate(live, len(system.roles))}
    message_ids: dict[Message, int] = {}
    steps: list[Step] = []
    compact = []
    for by_state in table:
        by_slot = {}
        for state, rows in by_state.items():
            out = []
            for step, dst, ci, message, is_send in rows:
                if ci in slot_of:
                    msg = message_ids.setdefault(message, len(message_ids))
                    out.append((slot_of[ci], msg, is_send, dst, len(steps)))
                    steps.append(step)
            if out:
                by_slot[state] = tuple(out)
        compact.append(by_slot)
    return live, tuple(message_ids), tuple(steps), tuple(compact)


def build_bounded_graph(
    system: System, k: int, max_configs: int = 1_000_000,
) -> BoundedGraph:
    """Breadth-first exploration of every configuration reachable under `k`.

    Takes the same steps as `enabled_steps`, in the same order.  `system`
    must be valid (`validate_system` reports no errors): it is not checked
    here, since callers explore one system under several bounds;
    `check_kmc_detailed` checks it once.  Raises `ResourceExhausted` once
    more than `max_configs` distinct configurations would have to be kept.
    """
    if k < 1:
        raise ValueError("bound must be at least 1")
    live, messages, steps, rows = _compact_rows(system)
    init = tuple(system.machines[r].initial for r in system.roles) + ((),) * len(live)
    configs = [init]
    seen = {init: 0}
    src, step_id, dst = array("i"), array("i"), array("i")
    parent_edge = array("i", [-1])
    depth = [0]
    by_role = tuple(enumerate(rows))
    claim, add_src, add_step, add_dst = seen.setdefault, src.append, step_id.append, dst.append
    n = 1
    for u, cfg in enumerate(configs):  # nodes are expanded in discovery order
        d = depth[u] + 1
        for ri, by_state in by_role:
            for slot, msg, is_send, target, sid in by_state.get(cfg[ri], ()):
                queue = cfg[slot]
                if is_send:
                    if len(queue) >= k:
                        continue
                    queue += (msg,)
                elif queue and queue[0] == msg:
                    queue = queue[1:]
                else:
                    continue
                nxt = list(cfg)
                nxt[ri] = target
                nxt[slot] = queue
                nxt = tuple(nxt)
                v = claim(nxt, n)
                if v == n:
                    if n >= max_configs:
                        raise ResourceExhausted(n, k, max_configs)
                    n += 1
                    configs.append(nxt)
                    parent_edge.append(len(src))
                    depth.append(d)
                add_src(u)
                add_step(sid)
                add_dst(v)
    return BoundedGraph(system, k, configs, live, messages, steps, rows,
                        src, step_id, dst, parent_edge, depth)
