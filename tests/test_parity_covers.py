"""Parity covers: a machine's shape must not change the verdict.

The parity cover of a machine has a state `(s, c)` for each state `s` and
`c` in {0, 1}, and each transition `s -> t` steps `(s, c)` to `(t, 1 - c)`.
It keeps the states reachable from `(initial, 0)`, numbered in
breadth-first order.  Mapping `(s, c)` back to `s` is a bisimulation, so a
system whose machines are replaced by their covers has the same verdict
class and least bound, its progress violations are the original's
(role, state) pairs once each state is mapped back, and its reception
violations lie on the same channels.  Their labels are not compared: a
cover splits a receiver's state in two, and each half's first witness can
hold a different message at the head.  A machine with a reachable odd cycle
grows, up to twice its size, so role fields widen and lookup blocks split.
(A metamorphic relation, like the disjoint unions of
`test_disjoint_unions.py`.)
"""
from __future__ import annotations

import random
import time

from kmcheck.checker import Inconclusive, ProgressViolation, Unsafe, check_kmc_detailed
from kmcheck.model import Machine, System
from kmcheck.semantics import ResourceExhausted

from generators import own_move_system, random_system


def _cover(machine: Machine) -> tuple[Machine, list[int]]:
    """The parity cover of `machine` and, per cover state, the state it
    covers."""
    ids, order, transitions = {(machine.initial, 0): 0}, [(machine.initial, 0)], []
    for s, c in order:  # the list grows as states are found: breadth first
        for action, t in machine.outgoing(s):
            key = (t, 1 - c)
            if key not in ids:
                ids[key] = len(order)
                order.append(key)
            transitions.append((ids[s, c], action, ids[key]))
    return Machine(frozenset(range(len(order))), 0, tuple(transitions)), [s for s, _ in order]


def _summary(system: System, back: dict[str, list[int]] | None = None):
    """The verdict class, the least bound, the progress violations'
    (role, state) pairs, each state mapped through `back` when given, and
    the reception violations' channels; None where the cap stops the check."""
    try:
        verdict = check_kmc_detailed(system, max_bound=4, max_configs=20_000).verdict
    except ResourceExhausted:
        return None
    kinds = [v.kind for v in verdict.violations] if isinstance(verdict, Unsafe) else []
    return (type(verdict).__name__,
            None if isinstance(verdict, Inconclusive) else verdict.k,
            {(kind.role, back[kind.role][kind.state] if back else kind.state)
             for kind in kinds if isinstance(kind, ProgressViolation)},
            {(kind.sender, kind.receiver)
             for kind in kinds if not isinstance(kind, ProgressViolation)})


def test_parity_covers_keep_the_verdict():
    rng = random.Random(1)
    started = time.process_time()
    agreed = grew = 0
    for n in range(600):
        system = (own_move_system(rng) if n % 10 == 0
                  else random_system(rng, max_roles=4, max_states=6))
        covers = {role: _cover(m) for role, m in system.machines.items()}
        cover = System(system.roles, {role: m for role, (m, _) in covers.items()})
        before = _summary(system)
        after = _summary(cover, {role: back for role, (_, back) in covers.items()})
        if before is None or after is None:  # the cap stopped one of them
            continue
        assert after == before
        agreed += 1
        grew += any(len(m.states) > len(system.machines[role].states)
                    for role, (m, _) in covers.items())
    # 599 and 433 at the time of writing
    assert agreed >= 590 and grew >= 350, (agreed, grew)
    assert time.process_time() - started < 5.0
