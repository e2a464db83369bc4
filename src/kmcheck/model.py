"""Protocol model: roles, actions, local types, and their machines.

A protocol is described per role by a local type (send/receive
actions, directed choice, guarded recursion).  Each local type compiles to a
finite state machine; a `System` bundles one machine per role and fixes the
role order used everywhere else (channel order, configuration layout,
scheduling).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .dsl import SourceSpan

ROLE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

DEFAULT_SORT = "unit"


class Direction(Enum):
    SEND = "!"
    RECEIVE = "?"


# Reading `Direction.SEND` off the enum class costs about ten times a global
# read (CPython 3.11), so the loops over every action read this one.
_SEND = Direction.SEND


@dataclass(slots=True, unsafe_hash=True)
class Action:
    """One communication: `peer!label<sort>` (send) or `peer?label<sort>`."""

    peer: str
    direction: Direction
    label: str
    sort: str = DEFAULT_SORT

    def __str__(self) -> str:
        return f"{self.peer}{self.direction.value}{self.label}<{self.sort}>"

    @property
    def key(self) -> tuple[str, bool, str]:
        """Determinism key, (peer, is a send, label): two transitions from
        one state must differ here.  It holds no enum, so hashing it calls
        no Python code."""
        return (self.peer, self.direction is _SEND, self.label)


Message = tuple[str, str]  # (label, sort): what one queue slot holds


@dataclass(slots=True, unsafe_hash=True)
class Step:
    """One transition taken by one role."""

    role: str
    action: Action

    def __str__(self) -> str:
        return f"{self.role} {self.action}"


def send(peer: str, label: str, sort: str = DEFAULT_SORT) -> Action:
    return Action(peer, Direction.SEND, label, sort)


def receive(peer: str, label: str, sort: str = DEFAULT_SORT) -> Action:
    return Action(peer, Direction.RECEIVE, label, sort)


# --- local types ------------------------------------------------------------
#
# A `Branch` and a `RecVar` carry the source position that `check_local_type`
# reports their faults at.  It never takes part in equality or hashing, so
# structurally identical sub-terms from different places in a file compare
# equal.


@dataclass(slots=True, unsafe_hash=True)
class End:
    pass


@dataclass(slots=True, unsafe_hash=True)
class RecVar:
    var: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Branch:
    action: Action
    tail: "LocalType"
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Choice:
    branches: tuple[Branch, ...]


@dataclass(slots=True, unsafe_hash=True)
class RecBinder:
    var: str
    body: "LocalType"


LocalType = End | RecVar | Choice | RecBinder


class LocalTypeError(ValueError):
    """A structurally ill-formed local type."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span


class UnguardedRecursion(LocalTypeError):
    pass


class UnboundVariable(LocalTypeError):
    pass


class MixedChoice(LocalTypeError):
    pass


class DuplicateBranch(LocalTypeError):
    pass


def check_local_type(
    lt: LocalType,
    subject: str | None = None,
    roles: Iterable[str] | None = None,
) -> list[LocalTypeError]:
    """Collect structural faults in `lt`, in deterministic source order, as
    the `LocalTypeError` each would raise.

    Checks: recursion variables are bound and guarded (at least one action
    between binder and use), choices do not mix sends with receives, branch
    labels are distinct per choice.  When `subject`/`roles` are given, also
    flags self-communication and unknown peers.
    """
    known = set(roles) if roles is not None else None
    issues: list[LocalTypeError] = []
    # Work items, next one last: a sub-term to walk under the guardedness of
    # the variables in scope, or a branch whose checks come before its tail.
    # Each choice's branches share its `seen` and `direction`.
    stack: list[tuple] = [(lt, {})]
    while stack:
        item = stack.pop()
        cls = item[0].__class__
        if cls is Branch:
            b, seen, direction, after = item
            a = b.action
            key = a.key
            if a.direction is not direction:
                issues.append(MixedChoice("choice mixes send and receive branches", b.span))
            if key in seen:
                issues.append(DuplicateBranch(
                    f"duplicate branch '{a.peer}{a.direction.value}{a.label}' in choice",
                    b.span))
            seen.add(key)
            if subject is not None and a.peer == subject:
                issues.append(LocalTypeError(
                    f"role '{subject}' communicates with itself", b.span))
            if known is not None and a.peer not in known:
                issues.append(LocalTypeError(f"unknown peer role '{a.peer}'", b.span))
            stack.append((b.tail, after))
            continue
        t, guarded = item
        if cls is End:
            continue
        if cls is RecVar:
            if t.var not in guarded:
                issues.append(UnboundVariable(
                    f"recursion variable '{t.var}' is not bound", t.span))
            elif not guarded[t.var]:
                issues.append(UnguardedRecursion(
                    f"recursion variable '{t.var}' is used without an action in between",
                    t.span))
            continue
        if cls is RecBinder:
            stack.append((t.body, {**guarded, t.var: False}))
            continue
        seen: set[tuple[str, bool, str]] = set()
        direction = t.branches[0].action.direction if t.branches else None
        # crossing an action guards every recursion variable in scope
        after = guarded if all(guarded.values()) else {v: True for v in guarded}
        stack.extend([(b, seen, direction, after) for b in reversed(t.branches)])
    return issues


# --- machines ---------------------------------------------------------------


@dataclass(frozen=True)
class Machine:
    """A finite state machine for one role.

    States are dense integers with `initial` = 0 by construction; transitions
    keep their declaration order, which downstream code relies on for
    deterministic scheduling and rendering.
    """

    states: frozenset[int]
    initial: int
    transitions: tuple[tuple[int, Action, int], ...]

    @cached_property
    def _outgoing(self) -> dict[int, tuple[tuple[Action, int], ...]]:
        out: dict[int, list[tuple[Action, int]]] = {}
        for src, action, dst in self.transitions:
            out.setdefault(src, []).append((action, dst))
        return {s: tuple(v) for s, v in out.items()}

    def outgoing(self, state: int) -> tuple[tuple[Action, int], ...]:
        return self._outgoing.get(state, ())

    def is_terminal(self, state: int) -> bool:
        return not self._outgoing.get(state)


_Key = tuple  # ("E",) | ("V", var) | ("R", var, body) | ("C", ((action id, tail), ...))
_END: _Key = ("E",)


class _Terms:
    """Hash-consed local types: one int id per distinct term.

    A term's key names its sub-terms by id, so two terms get the same id
    exactly when they are structurally equal: binder and variable names take
    part, spans do not, and alpha-variants stay distinct.  A choice's key
    names each action by its index in `actions`, one per distinct action, so
    a key holds only strings and ints and hashes without calling Python
    code.  `free[i]` holds the free recursion variables of term `i` as
    bits, variable `v` at bit `var_bits[v]`, so a binder clears one bit and
    a choice ORs its tails' ints instead of copying a set of names.
    Nothing here recurses, so the depth of a term costs no interpreter stack.
    """

    def __init__(self) -> None:
        self.ids: dict[_Key, int] = {}
        self.keys: list[_Key] = []
        self.free: list[int] = []
        self.var_bits: dict[str, int] = {}
        self.actions: list[Action] = []
        self._action_ids: dict[tuple[str, bool, str, str], int] = {}
        # (var, repl) -> {term id: id with free `var` replaced by `repl`}
        self._substituted: dict[tuple[str, int], dict[int, int]] = {}

    def intern(self, key: _Key) -> int:
        i = self.ids.setdefault(key, len(self.keys))
        if i < len(self.keys):
            return i
        tag, free = key[0], 0
        if tag == "V":
            free = self.var_bits.setdefault(key[1], 1 << len(self.var_bits))
        elif tag == "R":
            free = self.free[key[2]] & ~self.var_bits.get(key[1], 0)
        elif tag == "C":
            for _, tail in key[1]:
                free |= self.free[tail]
        self.keys.append(key)
        self.free.append(free)
        return i

    def close(self, lt: LocalType) -> int:
        """Id of `lt`, interned bottom-up.

        A type that passed `check_local_type` binds every variable it uses,
        so interning it is all that closing it takes.
        """
        action_ids, actions = self._action_ids, self.actions
        done: list[int] = []  # ids of finished sub-terms, left to right
        stack: list[tuple[LocalType, bool]] = [(lt, False)]
        while stack:
            t, children_done = stack.pop()
            cls = t.__class__
            if cls is End:
                done.append(self.intern(_END))
            elif cls is RecVar:
                done.append(self.intern(("V", t.var)))
            elif not children_done:
                stack.append((t, True))
                if cls is RecBinder:
                    stack.append((t.body, False))
                else:
                    stack.extend([(b.tail, False) for b in reversed(t.branches)])
            elif cls is RecBinder:
                done.append(self.intern(("R", t.var, done.pop())))
            else:
                first = len(done) - len(t.branches)
                row = []
                for b, tail in zip(t.branches, done[first:]):
                    a = b.action
                    value = (a.peer, a.direction is _SEND, a.label, a.sort)
                    aid = action_ids.setdefault(value, len(actions))
                    if aid == len(actions):
                        actions.append(a)
                    row.append((aid, tail))
                del done[first:]
                done.append(self.intern(("C", tuple(row))))
        return done[0]

    def subst(self, root: int, var: str, repl: int) -> int:
        """Id of term `root` with its free `var` replaced by term `repl`.

        Memoised on (root, var, repl); sub-terms in which `var` is not free
        come back unchanged.  `repl` must be closed, so nothing is captured.
        """
        free, keys, bit = self.free, self.keys, self.var_bits.get(var, 0)
        if not free[root] & bit:
            return root
        memo = self._substituted.setdefault((var, repl), {})
        # (id, its children are done), so each term is expanded once
        stack = [(root, False)]
        while stack:
            i, children_done = stack.pop()
            key = keys[i]
            if children_done:
                if key[0] == "R":
                    memo[i] = self.intern(("R", key[1], memo[key[2]]))
                else:
                    memo[i] = self.intern(("C", tuple(
                        (aid, memo[tail] if free[tail] & bit else tail)
                        for aid, tail in key[1])))
            elif i not in memo:
                if key[0] == "V":  # free, so it is `var` itself
                    memo[i] = repl
                    continue
                stack.append((i, True))
                if key[0] == "R":
                    stack.append((key[2], False))
                else:
                    stack.extend([(tail, False) for _, tail in key[1] if free[tail] & bit])
        return memo[root]

    def behaviour(self, i: int) -> int:
        """Unfold leading binders (`rec t. T` behaves as `T[t := rec t. T]`)
        until an action choice or `end` surfaces.  Guarded recursion makes
        this terminate; `i` must be closed, so no bare variable surfaces."""
        key = self.keys[i]
        while key[0] == "R":
            i = self.subst(key[2], key[1], i)
            key = self.keys[i]
        assert key[0] != "V"
        return i


def local_type_to_machine(lt: LocalType) -> Machine:
    """Compile a local type to its machine.

    States are the distinct behaviours among sub-terms of `lt`: a binder is
    identified with its body, a recursion variable with its binder, and
    structurally identical sub-terms share one state.  Identity is
    structural, binder names included, so alpha-variants are distinct
    states.  Ids are assigned in depth-first order of first reachability, so
    the initial state is 0 and numbering is canonical.

    Raises UnguardedRecursion, UnboundVariable, MixedChoice or
    DuplicateBranch on an ill-formed input.  A local type does not know the
    roles, so `parse_system` and `validate_system` check its peers.
    """
    issues = check_local_type(lt)
    if issues:
        raise issues[0]

    terms = _Terms()
    keys, actions = terms.keys, terms.actions
    root = terms.behaviour(terms.close(lt))
    ids: dict[int, int] = {}
    succ: list[list[tuple[Action, int]]] = []
    stack = [root]
    while stack:
        t = stack.pop()
        if t in ids:
            continue
        ids[t] = len(succ)
        key = keys[t]
        if key[0] == "C":
            row = [(actions[aid], terms.behaviour(tail)) for aid, tail in key[1]]
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


# --- systems ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class System:
    """One machine per role; `roles` fixes the canonical order."""

    roles: tuple[str, ...]
    machines: dict[str, Machine]

    @cached_property
    def role_index(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.roles)}

    @cached_property
    def channels(self) -> tuple[tuple[str, str], ...]:
        """The (sender, receiver) pairs some role sends on, in role order:
        one FIFO queue each.  Read off the send transitions, so a system
        whose roles mostly keep silent has few.

        Every run of a system reads this first, so it is the validity gate:
        it raises `ValueError("invalid system: …")` listing the errors that
        `validate_system` reports; lints pass."""
        errors = [str(d) for d in self._diagnostics if d.severity is Severity.ERROR]
        if errors:
            raise ValueError("invalid system: " + "; ".join(errors))
        index = self.role_index
        pairs = {(index[role], index[action.peer])
                 for role in self.roles for _, action, _ in self.machines[role].transitions
                 if action.direction is _SEND}
        return tuple((self.roles[p], self.roles[q]) for p, q in sorted(pairs))

    @cached_property
    def channel_index(self) -> dict[tuple[str, str], int]:
        return {c: i for i, c in enumerate(self.channels)}

    @cached_property
    def step_table(self) -> tuple[dict[int, tuple[tuple, ...]], ...]:
        """Per role index, each state's transitions in declaration order as
        (step, dst, channel index, message, is_send) rows: a send appends
        `message` to the channel, a receive pops it from its head.  A
        receive on a pair nobody sends on has channel index None: it is
        never enabled.  One `Step` per transition."""
        channel_index = self.channel_index  # the gate, before any machine is read

        def row(role: str, action: Action, dst: int) -> tuple:
            is_send = action.direction is _SEND
            channel = (role, action.peer) if is_send else (action.peer, role)
            return (Step(role, action), dst, channel_index.get(channel),
                    (action.label, action.sort), is_send)

        return tuple({src: tuple(row(role, action, dst) for action, dst in out)
                      for src, out in self.machines[role]._outgoing.items()}
                     for role in self.roles)

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))


class Severity(Enum):
    ERROR = "error"
    LINT = "lint"


@dataclass(slots=True, unsafe_hash=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    role: str | None = None
    state: int | None = None

    def __str__(self) -> str:
        where = f" [{self.role}" + (f"/{self.state}" if self.state is not None else "") + "]" \
            if self.role else ""
        return f"{self.severity.value}: {self.message}{where}"


def _error(code: str, message: str, role: str | None = None, state: int | None = None):
    return Diagnostic(Severity.ERROR, code, message, role, state)


def _lint(code: str, message: str, role: str | None = None, state: int | None = None):
    return Diagnostic(Severity.LINT, code, message, role, state)


def validate_system(system: System) -> list[Diagnostic]:
    """Well-formedness report for a system; empty means fully valid.

    Errors cover role naming and uniqueness, machine/role agreement, state
    references, determinism, mixed send/receive states, self-communication,
    unknown peers and unreachable states.  A choice whose branches target
    different peers is reported as a lint, not an error.  The report is
    worked out once and cached on `system`; each call gets a new list.
    """
    return list(system._diagnostics)


def _diagnose(system: System) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not system.roles:
        diags.append(_error("no-roles", "system has no roles"))
    seen_roles = set()
    for r in system.roles:
        if not ROLE_NAME.match(r):
            diags.append(_error("bad-role-name", f"invalid role name '{r}'", r))
        if r in seen_roles:
            diags.append(_error("duplicate-role", f"duplicate role '{r}'", r))
        seen_roles.add(r)
        if r not in system.machines:
            diags.append(_error("missing-machine", f"role '{r}' has no machine", r))
    for r in system.machines:
        if r not in seen_roles:
            diags.append(_error("unknown-machine", f"machine for undeclared role '{r}'", r))

    for r in system.roles:
        m = system.machines.get(r)
        if m is None:
            continue
        if m.initial not in m.states:
            diags.append(_error("bad-initial", f"initial state {m.initial} does not exist", r))
            continue
        broken = False
        for src, action, dst in m.transitions:
            if src not in m.states or dst not in m.states:
                diags.append(_error(
                    "dangling-transition",
                    f"transition {src} --{action}--> {dst} leaves the state set", r, src))
                broken = True
        if broken:
            continue
        for s in sorted(m.states):
            out = m.outgoing(s)
            keys = [a.key for a, _ in out]
            if len(set(keys)) != len(keys):
                diags.append(_error(
                    "nondeterminism", f"state {s} has transitions sharing an action key", r, s))
            if len({is_send for _, is_send, _ in keys}) > 1:
                diags.append(_error(
                    "mixed-state", f"state {s} mixes send and receive transitions", r, s))
            for a, _ in out:
                if a.peer == r:
                    diags.append(_error(
                        "self-communication", f"state {s} communicates with '{r}' itself", r, s))
                elif a.peer not in seen_roles:
                    diags.append(_error(
                        "unknown-peer", f"state {s} addresses unknown role '{a.peer}'", r, s))
            if len({a.peer for a, _ in out}) > 1:
                diags.append(_lint(
                    "non-directed-choice",
                    f"state {s} chooses between different peers", r, s))
        reached = {m.initial}
        frontier = [m.initial]
        while frontier:
            s = frontier.pop()
            for _, dst in m.outgoing(s):
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        for s in sorted(m.states - reached):
            diags.append(_error("unreachable-state", f"state {s} is unreachable", r, s))
    return diags


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)

