"""The closure checks against the brute-force oracle, bound by bound.

Criterion 6 compares verdicts at the bound that settles them.  Here every
bound from 1 to 3 is compared, including bounds that starve some send, and
the checks' full results are compared configuration by configuration: every
starved send obligation, and every safety witness together with its depth.
The event bits both checks read (`BoundedGraph.reach`: per channel, its head
consumed, and its head consumed before its sender moves) are compared node
by node with a forward search, bits that neither check reads included.
"""
from __future__ import annotations

import random
import time

from kmcheck.checker import (
    EventualReceptionViolation,
    ProgressViolation,
    check_exhaustive,
    check_safety,
)
from kmcheck.dsl import parse_system
from kmcheck.model import Direction
from kmcheck.semantics import HopelessSend, build_bounded_graph

from conftest import FIXTURES, fixture_system
from generators import own_move_system, random_system
from oracle import (
    Blowup,
    bfs_depths,
    decode,
    explore,
    stuck_receivers,
    unmet_obligations,
    unreceived,
)


def _oracle_layout(system):
    """Configuration -> the same configuration in the oracle's sorted-name
    layout (roles and every ordered role pair sorted by name; a pair nobody
    sends on has no queue and holds `()`)."""
    roles = [system.role_index[r] for r in sorted(system.roles)]
    pairs = sorted((p, q) for p in system.roles for q in system.roles if p != q)
    channels = [system.channel_index.get(c) for c in pairs]

    def convert(cfg):
        return (tuple(cfg.locals[i] for i in roles),
                tuple(() if i is None else cfg.buffers[i] for i in channels))
    return convert


def _compare_safety(system, graph, cfg_of, oracle_graph) -> None:
    """Each witness is the first node, by (depth, node number), among the
    oracle's configurations for its (role or channel, local state)."""
    depths = bfs_depths(system, oracle_graph)
    node_of = {cfg: i for i, cfg in enumerate(cfg_of)}

    def first(found: dict) -> dict:
        return {key: min((depths[cfg], node_of[cfg]) for cfg in cfgs)
                for key, cfgs in found.items()}

    order = sorted(system.roles)
    stuck: dict[tuple, set] = {}
    for cfg, role, state in stuck_receivers(system, oracle_graph):
        stuck.setdefault((role, state), set()).add(cfg)
    rotten: dict[tuple, set] = {}
    for cfg, sender, receiver, label, sort in unreceived(system, oracle_graph):
        key = (sender, receiver, cfg[0][order.index(receiver)])
        rotten.setdefault(key, set()).add((cfg, label, sort))

    progress, reception = {}, {}
    for v in check_safety(system, graph):
        cfg = cfg_of[v.witness]
        assert len(v.trace) == depths[cfg]
        if isinstance(v.kind, ProgressViolation):
            key = (v.kind.role, v.kind.state)
            assert cfg in stuck.get(key, ()), key
            progress[key] = (depths[cfg], v.witness)
        else:
            assert isinstance(v.kind, EventualReceptionViolation)
            receiver_state = cfg[0][order.index(v.kind.receiver)]
            key = (v.kind.sender, v.kind.receiver, receiver_state)
            assert (cfg, v.kind.label, v.kind.sort) in rotten.get(key, ()), key
            reception[key] = (depths[cfg], v.witness)

    assert progress == first(stuck)
    assert reception == first(
        {key: {cfg for cfg, _, _ in found} for key, found in rotten.items()})


def _compare_bound(system, k) -> tuple | None:
    """Compare both checks with the oracle at bound `k`; the starved send
    obligations, or None when the oracle's graph outgrows its cap."""
    try:
        oracle_graph = explore(system, k, cap=1500)
    except Blowup:
        return None
    graph = build_bounded_graph(system, k)
    cfg_of = [_oracle_layout(system)(node) for node in decode(graph).nodes]
    assert set(cfg_of) == set(oracle_graph)

    obligations = check_exhaustive(system, graph)
    assert len(set(obligations)) == len(obligations)
    assert {(cfg_of[i], role, action) for i, role, action in obligations} \
        == set(unmet_obligations(system, k, oracle_graph))
    _compare_safety(system, graph, cfg_of, oracle_graph)
    return obligations


def _compare_draws(rng, draws: int, **shape) -> tuple[int, int]:
    """Compare `draws` random systems of the given shape at k = 1..3; the
    number of bounds compared, and of those that starve some send."""
    compared = starved = 0
    for _ in range(draws):
        system = random_system(rng, **shape)
        for k in (1, 2, 3):
            obligations = _compare_bound(system, k)
            if obligations is None:
                break
            compared += 1
            starved += bool(obligations)
    return compared, starved


def test_checks_agree_with_oracle_at_every_bound():
    rng = random.Random(20261017)
    started = time.monotonic()
    compared, starved = _compare_draws(rng, 500, max_roles=4)
    assert compared >= 1000 and starved >= 200, (compared, starved)
    assert time.monotonic() - started < 10.0


def test_checks_agree_with_oracle_on_larger_systems():
    # up to 4 roles of up to 6 states each
    rng = random.Random(20261019)
    started = time.process_time()
    compared, starved = _compare_draws(rng, 300, max_roles=4, max_states=6)
    assert compared >= 850 and starved >= 200, (compared, starved)
    assert time.process_time() - started < 5.0


def test_obligations_come_in_the_documented_order():
    # by sender in role order, then by peer name, then by candidate in node
    # order, then by send in the order of its state's transitions
    rng = random.Random(20261026)
    started = time.process_time()
    starved = several = 0
    for _ in range(400):
        system = random_system(rng, max_roles=4)
        order = sorted(system.roles)
        for k in (1, 2):
            try:
                oracle_graph = explore(system, k, cap=1500)
            except Blowup:
                break
            graph = build_bounded_graph(system, k)
            convert = _oracle_layout(system)
            node_of = {convert(cfg): i for i, cfg in enumerate(decode(graph).nodes)}

            def key(found):
                cfg, role, action = found
                sends = system.machines[role].outgoing(cfg[0][order.index(role)])
                return (system.role_index[role], action.peer, node_of[cfg],
                        [a for a, _ in sends].index(action))

            expected = [(node_of[cfg], role, action) for cfg, role, action
                        in sorted(unmet_obligations(system, k, oracle_graph), key=key)]
            assert list(check_exhaustive(system, graph)) == expected
            starved += bool(expected)
            candidates = [(i, role, action.peer) for i, role, action in expected]
            several += len(set(candidates)) < len(candidates)  # several sends at one
    # 201 and 112 of 800 bounds at the time of writing
    assert starved >= 170 and several >= 95, (starved, several)
    assert time.process_time() - started < 5.0


def _token_ring(n: int, last_stops: bool) -> str:
    """`n` roles passing one token round a ring for ever; with `last_stops`
    the last role ends after its receive, so the first waits in vain."""
    names = [f"p{i:02}" for i in range(n)]
    lines = [f"role {names[0]}: rec t. {names[1]}!tok<unit>; {names[-1]}?tok<unit>; t"]
    for prev, me, nxt in zip(names, names[1:], names[2:] + names[:1]):
        tail = "end" if last_stops and me == names[-1] else f"{nxt}!tok<unit>; t"
        lines.append(f"role {me}: rec t. {prev}?tok<unit>; {tail}")
    return "\n".join(lines) + "\n"


def test_event_masks_wider_than_a_machine_word():
    # 40 roles and 40 or 39 channels: 80 or 78 event bits per node, of which
    # `check_safety` reads the 40 or 39 consumed-head bits
    for last_stops in (False, True):
        system = parse_system(_token_ring(40, last_stops))
        graph = build_bounded_graph(system, 1)
        assert 2 * len(system.channels) == 80 - 2 * last_stops
        assert _compare_bound(system, 1) == ()
        # once the token stops, every other role waits for it for ever
        stuck = [v.kind.role for v in check_safety(system, graph)]
        assert sorted(stuck) == (sorted(system.roles)[:-1] if last_stops else [])
    # 71 channels, so the consumed-head bits alone are wider than a machine
    # word, and the one channel that rots is the last: a mask cut to 64 bits
    # would read every node as consumable everywhere, and the system as safe
    system = parse_system(_token_ring(70, False) + "role zs: zr!lost; end\nrole zr: end\n")
    graph = build_bounded_graph(system, 1)
    assert system.channels.index(("zs", "zr")) == len(system.channels) - 1 == 70
    assert check_exhaustive(system, graph) == ()
    (v,) = check_safety(system, graph)
    assert v.kind == EventualReceptionViolation("zs", "zr", "lost", "unit")
    assert len(v.trace) == 1


def test_send_waiting_on_its_own_role_agrees_with_oracle():
    # `own_move_system` starves a send that only its own role's moves could
    # free, which `random_system` never draws
    rng = random.Random(20261018)
    starved = 0
    for _ in range(100):
        system = own_move_system(rng)
        for k in (1, 2, 3):
            starved += bool(_compare_bound(system, k))
    assert starved >= 100, starved


def _gives_up(system, k) -> bool:
    """Whether exploring bound `k` stops at a hopeless send.  Where it
    stops, the full graph must starve that node's send, and its starved
    sends must be the oracle's; where it does not, the graph is the full
    one."""
    try:
        graph = build_bounded_graph(system, k, stop_at_hopeless=True)
    except HopelessSend as stop:
        obligations = _compare_bound(system, k)
        if obligations is None:  # the oracle outgrew its cap
            obligations = check_exhaustive(system, build_bounded_graph(system, k))
        assert stop.node in {node for node, _, _ in obligations}
        return True
    full = build_bounded_graph(system, k)
    assert (graph.configs, graph.src, graph.step_id, graph.blocked) \
        == (full.configs, full.src, full.step_id, full.blocked)
    return False


def test_a_bound_gives_up_only_where_it_starves_a_send():
    rng = random.Random(20261020)
    started = time.process_time()
    drawn = [random_system(rng, max_roles=4, max_states=6) for _ in range(300)]
    gave_up = sum(_gives_up(system, k) for system in drawn for k in (1, 2, 3))
    own_move = random.Random(20261021)
    drawn = [own_move_system(own_move) for _ in range(50)]
    gave_up_own = sum(_gives_up(system, k) for system in drawn for k in (1, 2, 3))
    # 214 of 900 bounds and 40 of 150 at the time of writing
    assert gave_up >= 170 and gave_up_own >= 30, (gave_up, gave_up_own)
    fixtures = [(path.name, k) for path in sorted(FIXTURES.glob("*.kmc")) for k in (1, 2, 3)
                if _gives_up(fixture_system(path.name), k)]
    assert fixtures == [("flood.kmc", 1), ("flood.kmc", 2), ("flood.kmc", 3)]
    assert time.process_time() - started < 10.0


def _reach_by_search(system, oracle_graph) -> dict:
    """Per oracle configuration, the bits `BoundedGraph.reach` should hold,
    by forward search from it: the channels whose head is consumed on some
    edge it reaches, and the channels whose head is consumed on an edge it
    reaches without a move by their sender."""
    c = len(system.channels)

    def fired(start, sender=None):
        # every (role, action) on an edge reachable from `start` without a
        # move by `sender`
        seen, stack, found = {start}, [start], []
        while stack:
            for role, action, dst in oracle_graph[stack.pop()]:
                if role != sender:
                    found.append((role, action))
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
        return found

    expected = {}
    for cfg in oracle_graph:
        bits = 0
        for role, action in fired(cfg):
            if action.direction is Direction.RECEIVE:
                bits |= 1 << system.channel_index[(action.peer, role)]
        for sender in system.roles:
            for role, action in fired(cfg, sender):
                if action.direction is Direction.RECEIVE and action.peer == sender:
                    bits |= 1 << (c + system.channel_index[(sender, role)])
        expected[cfg] = bits
    return expected


def _compare_reach(system, k) -> bool:
    """Compare every node's bits with the forward search at bound `k`;
    False when the oracle's graph outgrows its cap."""
    try:
        oracle_graph = explore(system, k, cap=400)
    except Blowup:
        return False
    graph = build_bounded_graph(system, k)
    expected = _reach_by_search(system, oracle_graph)
    convert = _oracle_layout(system)
    assert graph.reach == [expected[convert(node)] for node in decode(graph).nodes]
    return True


def test_reach_holds_exactly_the_events_each_node_can_reach():
    rng = random.Random(20261022)
    drawn = [random_system(rng, max_roles=4) for _ in range(200)]
    own_move = random.Random(20261023)
    drawn += [own_move_system(own_move) for _ in range(50)]
    drawn += [fixture_system(path.name) for path in sorted(FIXTURES.glob("*.kmc"))]
    started = time.process_time()
    compared = sum(_compare_reach(system, k) for system in drawn for k in (1, 2))
    assert compared >= 480, compared  # 518 of 518 at the time of writing
    assert time.process_time() - started < 10.0
