"""Seeded input families for the kmcheck benchmark, with their known answers.

Every family is a fixed protocol shape.  The seed only renames roles and
labels and shuffles the order of the role declarations, so the verdict, the
least bound, the configuration count and the violation count of every input
are the same for every seed.  Those answers are closed forms derived by hand
from each shape (see the family docstrings); `test_workloads.py` checks small
members of each family against the brute-force reference in `tests/oracle.py`.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass

KEYWORDS = frozenset({"role", "rec", "end", "or"})
EXIT_CODES = {"safe": 0, "unsafe": 1, "inconclusive": 2}


@dataclass(frozen=True)
class Expected:
    verdict: str
    k: int | None
    configurations: int  # in the graph that settled the verdict (the last one tried)
    violations: int
    explored: int  # configurations summed over every bound tried

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    max_bound: int
    expected: Expected


class Namer:
    """Fresh, seed-dependent identifiers for the abstract names of a family."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names: dict[str, str] = {}
        self.used: set[str] = set()

    def _fresh(self, first: str) -> str:
        tail = string.ascii_lowercase + string.digits
        while True:
            name = self.rng.choice(first) + "".join(self.rng.choice(tail) for _ in range(5))
            if name not in self.used and name not in KEYWORDS:
                self.used.add(name)
                return name

    def role(self, key) -> str:
        return self._name(("role", key), string.ascii_uppercase)

    def label(self, key) -> str:
        return self._name(("label", key), string.ascii_lowercase)

    def _name(self, key, first: str) -> str:
        if key not in self.names:
            self.names[key] = self._fresh(first)
        return self.names[key]


def _render(decls: list[tuple[str, str]], rng: random.Random) -> str:
    decls = list(decls)
    rng.shuffle(decls)
    return "".join(f"role {name}: {body}\n" for name, body in decls)


def _seq(actions: list[str], tail: str) -> str:
    return "".join(f"{a}; " for a in actions) + tail


# --- families ---------------------------------------------------------------
# Each family returns (declarations, Expected).  `nm` maps abstract role and
# label keys to the seed's names.


def _pipeline_decls(n: int, nm: Namer, tag: str) -> list[tuple[str, str]]:
    r = [nm.role((tag, i)) for i in range(n)]
    d = [nm.label((tag, i)) for i in range(n - 1)]
    decls = [(r[0], f"rec t. {r[1]}!{d[0]}; t")]
    for i in range(1, n - 1):
        decls.append((r[i], f"rec t. {r[i - 1]}?{d[i - 1]}; {r[i + 1]}!{d[i]}; t"))
    decls.append((r[n - 1], f"rec t. {r[n - 2]}?{d[n - 2]}; t"))
    return decls


def pipeline(n: int, nm: Namer):
    """A relay chain r0 -> r1 -> ... -> r(n-1), each stage forever passing one
    message on.  Safe at k=1: every channel holds 0 or 1 message and every
    inner stage is in one of 2 states, all combinations reachable, so
    2^(n-1) * 2^(n-2) = 2^(2n-3) configurations."""
    assert n >= 3
    configs = 2 ** (2 * n - 3)
    return _pipeline_decls(n, nm, "pipe"), Expected("safe", 1, configs, 0, configs)


def fanout(n: int, nm: Namer):
    """A master sends a task to each of n workers in turn, then collects one
    result from each in the same order, forever.  Safe at k=1.  While j tasks
    are out (j = 0..n) each of those workers is in one of 3 positions (task
    queued, working, result queued): sum 3^j; while collecting, j results in,
    the other n-j workers have 3 positions: sum 3^(n-j) for j = 1..n-1, the
    all-collected state being the initial one.  Total 2(3^n - 1)."""
    m = nm.role(("fan", "m"))
    w = [nm.role(("fan", i)) for i in range(n)]
    task, res = nm.label(("fan", "task")), nm.label(("fan", "res"))
    master = _seq([f"{x}!{task}" for x in w] + [f"{x}?{res}" for x in w], "t")
    decls = [(m, f"rec t. {master}")]
    decls += [(x, f"rec t. {m}?{task}; {m}!{res}; t") for x in w]
    configs = 2 * (3 ** n - 1)
    return decls, Expected("safe", 1, configs, 0, configs)


def _burst_copy_configs(b: int, k: int) -> int:
    if k < b:
        # the producer blocks after k items, before anyone else can move
        return k + 1
    # the producer has sent j items (j = 0..b) before "go": b + 1; with "go"
    # queued the relay waits, then holds it; then it has sent "ready" (the
    # consumer in any of b + 2 positions), then also the ping (again b + 2)
    return (b + 1) + 1 + 1 + 2 * (b + 2)


def burst_unsafe(b: int, copies: int, nm: Namer):
    """`copies` independent prefetch protocols.  In each, a producer pushes b
    items to a consumer before signalling a relay, and the consumer reads the
    items only after the relay's "ready": b slots must be in flight, so the
    least covering bound is b.  The relay then sends an orphan "ping" that the
    consumer never reads.  Unsafe at k=b; per copy there are 3b + 7
    configurations and b + 1 eventual-reception violations (one per consumer
    state after it took "ready", with the ping at the head of its queue).
    Needs b >= 2, so that "ready" and the ping fit in the relay's queue."""
    assert b >= 2
    decls = []
    for c in range(copies):
        a, q, r = (nm.role(("burst", c, x)) for x in "aqr")
        items = [nm.label(("burst", c, "item", i)) for i in range(b)]
        go, ready, ping = (nm.label(("burst", c, x)) for x in ("go", "ready", "ping"))
        decls.append((a, _seq([f"{q}!{x}" for x in items] + [f"{r}!{go}"], "end")))
        decls.append((q, _seq([f"{r}?{ready}"] + [f"{a}?{x}" for x in items], "end")))
        decls.append((r, f"{a}?{go}; {q}!{ready}; {q}!{ping}; end"))
    per_k = [_burst_copy_configs(b, k) ** copies for k in range(1, b + 1)]
    return decls, Expected("unsafe", b, per_k[-1], copies * (b + 1), sum(per_k))


def flooded_pipeline(n: int, max_bound: int, nm: Namer):
    """`pipeline n` plus a role that floods the head of the pipeline with a
    message it never reads.  The flood fills any bound, so no bound covers
    every send and the verdict is inconclusive after trying k = 1..max_bound.
    At bound k every one of the n channels holds 0..k messages and each of
    the n-2 inner stages is in one of 2 states: 2^(n-2) (k+1)^n
    configurations."""
    decls = _pipeline_decls(n, nm, "flood")
    f, head = nm.role(("flood", "f")), decls[0][0]
    decls.append((f, f"rec t. {head}!{nm.label(('flood', 'x'))}; t"))
    per_k = [2 ** (n - 2) * (k + 1) ** n for k in range(1, max_bound + 1)]
    return decls, Expected("inconclusive", None, per_k[-1], 0, sum(per_k))


def _mirror(nm: Namer, tag: str, body) -> list[tuple[str, str]]:
    a, b = nm.role((tag, "a")), nm.role((tag, "b"))
    return [(a, body(f"{b}!")), (b, body(f"{a}?"))]


def nested_rec(depth: int, nm: Namer):
    """A sender runs through `depth` nested binders, one message each, then
    chooses which binder to jump back to; the receiver mirrors it.  Each role
    has depth + 1 states and 2 * depth transitions.  Safe at k=1: the roles
    agree (depth + 1 configurations) or the sender is one message ahead
    (2 * depth configurations), 3 * depth + 1 in all."""
    m = [nm.label(("nest", i)) for i in range(depth)]
    j = [nm.label(("nest", "back", i)) for i in range(depth)]

    def body(to: str) -> str:
        back = " or ".join(f"{{{to}{j[i]}; t{i}}}" for i in range(depth))
        return "".join(f"rec t{i}. {to}{m[i]}; " for i in range(depth)) + back

    configs = 3 * depth + 1
    return _mirror(nm, "nest", body), Expected("safe", 1, configs, 0, configs)


def wide_choice(width: int, nm: Namer):
    """A sender forever picks one of `width` labels and the receiver accepts
    any of them.  Safe at k=1 with 1 + width configurations (empty queue, or
    one of the labels in flight)."""
    ls = [nm.label(("wide", i)) for i in range(width)]

    def body(to: str) -> str:
        return "rec t. " + " or ".join(f"{{{to}{x}; t}}" for x in ls)

    return _mirror(nm, "wide", body), Expected("safe", 1, 1 + width, 0, 1 + width)


def looping_sequence(length: int, nm: Namer):
    """A sender repeats a fixed sequence of `length` messages that the
    receiver reads in the same order.  Safe at k=1 with 2 * length
    configurations (in step, or the sender one message ahead)."""
    ls = [nm.label(("seq", i)) for i in range(length)]

    def body(to: str) -> str:
        return "rec t. " + _seq([f"{to}{x}" for x in ls], "t")

    return _mirror(nm, "seq", body), Expected("safe", 1, 2 * length, 0, 2 * length)


# --- workloads --------------------------------------------------------------

DEFAULT_MAX_BOUND = 10  # kmcheck's own default for `check --max-bound`

# name -> [(case name, family, family arguments, --max-bound)]
WORKLOADS = {
    # Large graphs: exploration and the closure checks are the whole run.
    # The first two inputs settle at one bound with no violations (the control
    # for reuse across bounds); the last two explore several bounds, starve
    # sends and report violations with traces.
    "graphs": [
        ("pipeline9", pipeline, (9,), DEFAULT_MAX_BOUND),
        ("fanout8", fanout, (8,), DEFAULT_MAX_BOUND),
        ("burst-unsafe4x3", burst_unsafe, (4, 3), 8),
        ("flooded-pipeline4", flooded_pipeline, (4, 8), 8),
    ],
    # Tiny state spaces behind costly local types: the front end dominates.
    "frontend": [
        (f"nested-rec{d}", nested_rec, (d,), DEFAULT_MAX_BOUND) for d in (9, 10, 11)
    ] + [
        (f"wide-choice{w}", wide_choice, (w,), DEFAULT_MAX_BOUND) for w in (40, 60, 80)
    ] + [
        (f"looping-sequence{n}", looping_sequence, (n,), DEFAULT_MAX_BOUND)
        for n in (60, 90, 120)
    ],
}


def make_case(name: str, family, args: tuple, max_bound: int, seed: int) -> Case:
    rng = random.Random(f"{seed}/{name}")
    decls, expected = family(*args, Namer(rng))
    return Case(name, _render(decls, rng), max_bound, expected)


def make_workload(workload: str, seed: int) -> list[Case]:
    return [make_case(name, fam, args, mb, seed) for name, fam, args, mb in WORKLOADS[workload]]
