"""The closure checks against the brute-force oracle, bound by bound.

Criterion 6 compares verdicts at the bound that settles them.  Here every
bound from 1 to 3 is compared, including bounds that starve some send, and
the checks' full results are compared configuration by configuration: every
starved send obligation, and every safety witness together with its depth.
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
from kmcheck.semantics import build_bounded_graph

from generators import own_move_system, random_system
from oracle import (
    Blowup,
    bfs_depths,
    explore,
    stuck_receivers,
    unmet_obligations,
    unreceived,
)


def _oracle_layout(system):
    """Configuration -> the same configuration in the oracle's sorted-name
    layout (roles and channels sorted by name)."""
    roles = [system.role_index[r] for r in sorted(system.roles)]
    channels = [system.channel_index[c] for c in sorted(system.channels)]

    def convert(cfg):
        return (tuple(cfg.locals[i] for i in roles),
                tuple(cfg.buffers[i] for i in channels))
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
    cfg_of = [_oracle_layout(system)(node) for node in graph.nodes]
    assert set(cfg_of) == set(oracle_graph)

    obligations = check_exhaustive(system, graph)
    assert len(set(obligations)) == len(obligations)
    assert {(cfg_of[i], role, action) for i, role, action in obligations} \
        == set(unmet_obligations(system, k, oracle_graph))
    _compare_safety(system, graph, cfg_of, oracle_graph)
    return obligations


def test_checks_agree_with_oracle_at_every_bound():
    rng = random.Random(20261017)
    started = time.monotonic()
    compared = starved = 0
    for _ in range(500):
        system = random_system(rng, max_roles=4)
        for k in (1, 2, 3):
            obligations = _compare_bound(system, k)
            if obligations is None:
                break
            compared += 1
            starved += bool(obligations)
    assert compared >= 1000 and starved >= 200, (compared, starved)
    assert time.monotonic() - started < 10.0


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
