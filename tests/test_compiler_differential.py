"""The hash-consed local type compiler against the term-rewriting reference
in oracle.py: every compiled machine must be equal, state numbering
included."""
from __future__ import annotations

import random
import sys
import time

import pytest

from kmcheck.dsl import _lex, _Parser
from kmcheck.model import (
    Branch,
    Choice,
    RecBinder,
    RecVar,
    local_type_to_machine,
    send,
)

import oracle
from oracle import prefix
from conftest import FIXTURES, HERE
from generators import random_local_type

sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402


def _decls(text: str):
    tokens, errors = _lex(text)
    parser = _Parser(tokens, errors)
    decls = parser.parse_file()
    assert not parser.errors
    return [(tok.text, lt) for tok, lt in decls]


def _agrees(lt) -> None:
    assert local_type_to_machine(lt) == oracle.reference_machine(lt)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.kmc")), ids=lambda p: p.name)
def test_fixture_machines_match_reference(path):
    for role, lt in _decls(path.read_text()):
        _agrees(lt)


SMALL_FAMILY_MEMBERS = [
    (workloads.pipeline, (4,)),
    (workloads.fanout, (3,)),
    (workloads.burst_unsafe, (3, 2)),
    (workloads.flooded_pipeline, (4, 2)),
    (workloads.nested_rec, (5,)),
    (workloads.wide_choice, (6,)),
    (workloads.looping_sequence, (7,)),
]


@pytest.mark.parametrize("family, args", SMALL_FAMILY_MEMBERS,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_workload_family_machines_match_reference(family, args):
    case = workloads.make_case("small", family, args, 10, seed=3)
    for role, lt in _decls(case.text):
        _agrees(lt)


def test_random_local_types_match_reference():
    rng = random.Random(2024)
    for _ in range(2000):
        lt = random_local_type(
            rng, ("b", "c"),
            labels=("go", "stop", "data"),
            sorts=("unit", "int"),
            budget=rng.randint(3, 10))
        _agrees(lt)


def test_shadowed_binders_match_reference():
    # the inner `t` shadows the outer one; `u` still reaches the outer binder
    inner = RecBinder("t", Choice((
        Branch(send("b", "in"), RecVar("t")),
        Branch(send("b", "up"), RecVar("u")),
    )))
    lt = RecBinder("u", RecBinder("t", Choice((
        Branch(send("b", "once"), inner),
        Branch(send("b", "again"), RecVar("t")),
    ))))
    _agrees(lt)
    assert len(local_type_to_machine(lt).states) == 2


def test_alpha_variants_stay_distinct_states():
    # `rec t. b!y; t` and `rec s. b!y; s` behave alike but differ as terms
    (_, renamed), = _decls("role a: {b!x; rec t. b!y; t} or {b!z; rec s. b!y; s}")
    (_, same), = _decls("role a: {b!x; rec t. b!y; t} or {b!z; rec t. b!y; t}")
    _agrees(renamed)
    _agrees(same)
    assert len(local_type_to_machine(renamed).states) == 3
    assert len(local_type_to_machine(same).states) == 2


def _nested(depth: int):
    """`rec t0. b!m0; ... rec t(d-1). b!m(d-1); {b!j0; t0} or ...`: each
    binder re-enters the ones around it, the case that used to cost time
    exponential in `depth`."""
    lt = Choice(tuple(Branch(send("b", f"j{i}"), RecVar(f"t{i}")) for i in range(depth)))
    for i in reversed(range(depth)):
        lt = RecBinder(f"t{i}", prefix(send("b", f"m{i}"), lt))
    return lt


def _sequence(length: int):
    lt = RecVar("t")
    for i in reversed(range(length)):
        lt = prefix(send("b", f"m{i}"), lt)
    return RecBinder("t", lt)


@pytest.mark.parametrize("lt, states, seconds", [
    (_nested(30), 31, 1.0),
    # each binder is rebuilt once per binder around it, so a rebuild that
    # copied a set of its body's free variables would make this cubic
    (_nested(500), 501, 2.0),
    (_sequence(10_000), 10_000, 1.0),
], ids=["nesting-depth-30", "nesting-depth-500", "sequence-10k"])
def test_deep_types_compile_fast(lt, states, seconds):
    started = time.process_time()
    machine = local_type_to_machine(lt)
    assert time.process_time() - started < seconds
    assert len(machine.states) == states
