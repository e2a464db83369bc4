"""Random interleaving runs and trace replay.

The simulator picks uniformly among the enabled steps of the current
configuration until the system terminates (all roles in a terminal state,
all queues empty), deadlocks (nothing enabled), or the step budget runs
out.  Runs are reproducible: the same system, bound, seed and budget always
yield the same trace.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .model import Action, Direction, System
from .semantics import (Configuration, Step, _fitted_step_table, apply_step, enabled_steps,
                        initial_configuration)

DEFAULT_SEED = 0
DEFAULT_MAX_STEPS = 10_000


class Outcome(Enum):
    TERMINATED = "terminated"
    DEADLOCKED = "deadlocked"
    BUDGET_EXHAUSTED = "budget exhausted"


@dataclass(slots=True, unsafe_hash=True)
class RunResult:
    outcome: Outcome
    final: Configuration
    trace: tuple[Step, ...]
    steps_taken: int


def is_terminated(system: System, cfg: Configuration) -> bool:
    """Everyone finished and nothing left in flight.  Raises `ValueError`
    as `enabled_steps` does on a `cfg` that does not fit `system`."""
    table = _fitted_step_table(system, cfg)
    return not any(cfg.buffers) and not any(
        table[ri].get(state) for ri, state in enumerate(cfg.locals))


def simulate(
    system: System,
    bound: int | None,
    seed: int = DEFAULT_SEED,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """One random run under queue bound `bound` (None = unbounded queues).

    A system that `validate_system` reports errors for raises `ValueError`,
    as does a `bound` below 1; lints pass.
    """
    rng = random.Random(seed)
    cfg = initial_configuration(system)
    trace: list[Step] = []
    while True:
        options = enabled_steps(system, cfg, bound)
        if not options:  # a terminated run has no step either
            ended = Outcome.TERMINATED if is_terminated(system, cfg) else Outcome.DEADLOCKED
            return RunResult(ended, cfg, tuple(trace), len(trace))
        if len(trace) >= max_steps:
            return RunResult(Outcome.BUDGET_EXHAUSTED, cfg, tuple(trace), len(trace))
        step, cfg = options[rng.randrange(len(options))]
        trace.append(step)


class ReplayError(ValueError):
    """A trace stopped making sense at `index` (0-based).

    `reason` is one of "unknown_role" (the stepping role or its peer is not
    part of the system), "bad_action" (the role's current state has no such
    transition), or "not_enabled" (the transition exists but its queue is
    full, empty, or holds a different message at the head).
    """

    def __init__(self, index: int, reason: str, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index
        self.reason = reason


def replay(
    system: System, trace: tuple[Step, ...] | list[Step], bound: int | None,
) -> Configuration:
    """Drive the system through `trace` and return the final configuration.

    Each step is taken with `apply_step`, so it is enabled exactly when
    `enabled_steps` offers it.  Raises `ReplayError` at the first step that
    cannot be taken, so a trace accepted by replay is a genuine execution
    under the given bound.  A system that `validate_system` reports errors
    for raises `ValueError`, as does a `bound` below 1; lints pass.
    """
    cfg = initial_configuration(system)
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1")
    for i, step in enumerate(trace):
        role, a = step.role, step.action
        if role not in system.role_index or a.peer not in system.role_index:
            raise ReplayError(i, "unknown_role", f"unknown role in '{step}'")
        ri = system.role_index[role]
        state = cfg.locals[ri]
        for row_step, _, ci, _, is_send in system.step_table[ri].get(state, ()):
            if row_step == step:
                break
        else:
            raise ReplayError(
                i, "bad_action", f"{role} has no transition '{a}' at state {state}")
        nxt = apply_step(system, cfg, step, bound)
        if nxt is None:
            if is_send:
                why = f"queue {role}->{a.peer} is full, cannot send '{a.label}'"
            else:
                buf = () if ci is None else cfg.buffers[ci]
                head = f"'{buf[0][0]}'" if buf else "nothing"
                why = f"{role} expects '{a.label}' from {a.peer} but {head} is queued"
            raise ReplayError(i, "not_enabled", why)
        cfg = nxt
    return cfg


def format_trace(trace: tuple[Step, ...] | list[Step]) -> str:
    """Tab-separated trace text: role, peer, direction, label, sort."""
    lines = [
        "\t".join((s.role, s.action.peer, s.action.direction.value,
                   s.action.label, s.action.sort))
        for s in trace]
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str):
    """Inverse of `format_trace`; raises ValueError on a malformed line."""
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5 or parts[2] not in ("!", "?"):
            raise ValueError(f"line {lineno}: not a trace step: {line!r}")
        role, peer, mark, label, sort = parts
        steps.append(Step(role, Action(peer, Direction(mark), label, sort)))
    return tuple(steps)
