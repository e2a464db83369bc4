"""Seeded random protocol generators for the property tests.

Types are built so they are well formed by construction: branch keys are
sampled without replacement, every branch of a choice shares one direction,
and a recursion variable is only ever emitted after at least one action has
been crossed since its binder.
"""
from __future__ import annotations

import random

from kmcheck.dsl import parse_system
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
    System,
    local_type_to_machine,
)


def random_local_type(
    rng: random.Random,
    others: tuple[str, ...],
    labels: tuple[str, ...] = ("req", "ack"),
    sorts: tuple[str, ...] = ("unit",),
    budget: int = 6,
) -> LocalType:
    """One random local type talking to `others`."""
    fresh = iter(range(1000))

    def gen(budget: int, scope: list[str], guarded: set[str]) -> LocalType:
        if not others:
            return End()
        roll = rng.random()
        if budget <= 0 or roll < 0.2:
            usable = [v for v in scope if v in guarded]
            if usable and rng.random() < 0.6:
                return RecVar(rng.choice(usable))
            return End()
        if roll < 0.42:
            var = f"v{next(fresh)}"
            body = gen(budget - 1, scope + [var], guarded - {var})
            return RecBinder(var, body)
        return gen_choice(budget, scope, guarded)

    def gen_choice(budget: int, scope: list[str], guarded: set[str]) -> Choice:
        width = 1 + (rng.random() < 0.4) + (rng.random() < 0.15)
        direction = rng.choice((Direction.SEND, Direction.RECEIVE))
        if rng.random() < 0.8 or len(others) == 1:
            peer = rng.choice(others)
            pairs = [(peer, l) for l in labels]
        else:
            pairs = [(p, l) for p in others for l in labels]
        width = min(width, len(pairs))
        chosen = rng.sample(pairs, width)
        after = guarded | set(scope)
        branches = tuple(
            Branch(
                Action(peer, direction, label, rng.choice(sorts)),
                gen(budget - width, scope, after))
            for peer, label in chosen)
        return Choice(branches)

    out = gen(budget, [], set())
    if isinstance(out, RecVar):  # cannot happen (empty scope), but be safe
        return End()
    return out


def random_system(
    rng: random.Random,
    max_roles: int = 3,
    max_states: int = 4,
    labels: tuple[str, ...] = ("req", "ack"),
    sorts: tuple[str, ...] = ("unit",),
    budget: int = 6,
    tries: int = 50,
) -> System:
    """A random system whose machines all stay within `max_states` states."""
    n = rng.randint(2, max_roles) if max_roles >= 2 else max_roles
    roles = ("p", "q", "r", "s")[:n]
    machines: dict[str, Machine] = {}
    for role in roles:
        others = tuple(x for x in roles if x != role)
        for _ in range(tries):
            lt = random_local_type(rng, others, labels, sorts, budget)
            machine = local_type_to_machine(lt)
            if len(machine.states) <= max_states:
                machines[role] = machine
                break
        else:
            machines[role] = local_type_to_machine(End())
    return System(roles, machines)


def random_roundtrip_system(rng: random.Random) -> System:
    """A richer random system for parse/render round-trips: more roles,
    explicit sorts, deeper nesting, no cap on machine size."""
    n = rng.randint(2, 4)
    roles = ("a", "b", "c", "d")[:n]
    machines = {}
    for role in roles:
        others = tuple(x for x in roles if x != role)
        lt = random_local_type(
            rng, others,
            labels=("go", "stop", "data"),
            sorts=("unit", "int", "bool"),
            budget=rng.randint(4, 10))
        machines[role] = local_type_to_machine(lt)
    return System(roles, machines)


def own_move_system(rng: random.Random) -> System:
    """Three roles where a starved send can be freed only by its own role.

    The sender fills its queue to the target with `fills` messages, then
    chooses between one more message to the target and a request to the
    helper (a choice between different peers).  The target reads nothing
    before the helper's go, and the helper sends go only after the request,
    so at bound k = `fills` the pending send waits on the sender's own move
    alone.  Fill count, labels, branch order, role order and which roles
    loop are drawn from `rng`.
    """
    sender, target, helper = rng.sample(("p", "q", "r"), 3)
    fills = [rng.choice(("req", "ack", "data")) for _ in range(rng.randint(1, 2))]
    last, request, go = (rng.choice(("req", "ack", "data")) for _ in range(3))

    def loop() -> tuple[str, str]:
        # (what opens a role's type, what ends each of its runs)
        return ("rec t. ", "t") if rng.random() < 0.5 else ("", "end")

    fill = "".join(f"{target}!{label}; " for label in fills)
    opening, end = loop()
    branches = [f"{target}!{last}; {end}", f"{helper}!{request}; {target}!{last}; {end}"]
    rng.shuffle(branches)
    decls = {sender: opening + fill + " or ".join("{" + b + "}" for b in branches)}
    opening, end = loop()
    reads = [f"{helper}?{go}"] + [f"{sender}?{label}" for label in fills + [last]]
    decls[target] = opening + "".join(f"{a}; " for a in reads) + end
    opening, end = loop()
    decls[helper] = f"{opening}{sender}?{request}; {target}!{go}; {end}"
    order = rng.sample(sorted(decls), 3)
    return parse_system("".join(f"role {r}: {decls[r]}\n" for r in order))
