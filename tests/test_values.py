"""The public value classes: their `repr`, equality, hashing and slots.

One instance of each is built twice, so the two are equal but not the same
object.  Only hash equality is pinned, never a hash value, which may change
with the hash seed.
"""
from __future__ import annotations

import types

import pytest

from kmcheck import (
    Action,
    Branch,
    CheckOutcome,
    CheckStats,
    Choice,
    Configuration,
    Diagnostic,
    Direction,
    End,
    EventualReceptionViolation,
    Inconclusive,
    Machine,
    Outcome,
    ParseError,
    ProgressViolation,
    RecBinder,
    RecVar,
    RunResult,
    Safe,
    Severity,
    SourceSpan,
    Step,
    Unsafe,
    ValidationError,
    Violation,
)


def _action():
    return Action("b", Direction.SEND, "x", "int")


def _step():
    return Step("a", _action())


def _branch():
    return Branch(_action(), RecVar("t", SourceSpan(2, 5)), SourceSpan(1, 9))


def _stats():
    return CheckStats(12, 30, (1, 2), 0)


def _violation():
    return Violation(EventualReceptionViolation("a", "b", "x", "int"), 3, (_step(),))


def _configuration():
    return Configuration((0, 1), ((("x", "int"),),))


# (name, a function that builds one instance) for every public value class
BUILDERS = [
    ("Action", _action),
    ("Step", _step),
    ("End", End),
    ("RecVar", lambda: RecVar("t", SourceSpan(2, 5))),
    ("Branch", _branch),
    ("Choice", lambda: Choice((_branch(),))),
    ("RecBinder", lambda: RecBinder("t", Choice((_branch(),)))),
    ("Machine", lambda: Machine(frozenset({0, 1}), 0, ((0, _action(), 1),))),
    ("Diagnostic", lambda: Diagnostic(Severity.ERROR, "self-send", "a sends to itself", "a", 0)),
    ("SourceSpan", lambda: SourceSpan(3, 7)),
    ("ParseError", lambda: ParseError(SourceSpan(1, 9), "unexpected character '$'")),
    ("ValidationError", lambda: ValidationError(SourceSpan(1, 6), "invalid role name 'é'")),
    ("Configuration", _configuration),
    ("ProgressViolation", lambda: ProgressViolation("b", 1)),
    ("EventualReceptionViolation", lambda: EventualReceptionViolation("a", "b", "x", "int")),
    ("Violation", _violation),
    ("CheckStats", _stats),
    ("Safe", lambda: Safe(1)),
    ("Unsafe", lambda: Unsafe(2, (_violation(),))),
    ("Inconclusive", lambda: Inconclusive(3, "no bound up to 3 covers every send",
                                          ((2, _violation()),))),
    ("CheckOutcome", lambda: CheckOutcome(Safe(1), _stats())),
    ("RunResult", lambda: RunResult(Outcome.TERMINATED, _configuration(), (_step(),), 1)),
]

# the reprs of the parts that several instances share
_ACTION = "Action(peer='b', direction=<Direction.SEND: '!'>, label='x', sort='int')"
_STEP = f"Step(role='a', action={_ACTION})"
_BRANCH = f"Branch(action={_ACTION}, tail=RecVar(var='t'))"
_STATS = "CheckStats(configurations=12, edges=30, bounds_tried=(1, 2), elapsed_ms=0)"
_VIOLATION = ("Violation(kind=EventualReceptionViolation(sender='a', receiver='b', "
              f"label='x', sort='int'), witness=3, trace=({_STEP},))")
_CONFIGURATION = "Configuration(locals=(0, 1), buffers=((('x', 'int'),),))"

REPRS = {
    "Action": _ACTION,
    "Step": _STEP,
    "End": "End()",
    "RecVar": "RecVar(var='t')",
    "Branch": _BRANCH,
    "Choice": f"Choice(branches=({_BRANCH},))",
    "RecBinder": f"RecBinder(var='t', body=Choice(branches=({_BRANCH},)))",
    "Machine": f"Machine(states=frozenset({{0, 1}}), initial=0, transitions=((0, {_ACTION}, 1),))",
    "Diagnostic": ("Diagnostic(severity=<Severity.ERROR: 'error'>, code='self-send', "
                   "message='a sends to itself', role='a', state=0)"),
    "SourceSpan": "SourceSpan(line=3, column=7)",
    "ParseError": ("ParseError(span=SourceSpan(line=1, column=9), "
                   "message=\"unexpected character '$'\")"),
    "ValidationError": ("ValidationError(span=SourceSpan(line=1, column=6), "
                        "message=\"invalid role name 'é'\")"),
    "Configuration": _CONFIGURATION,
    "ProgressViolation": "ProgressViolation(role='b', state=1)",
    "EventualReceptionViolation": ("EventualReceptionViolation(sender='a', receiver='b', "
                                   "label='x', sort='int')"),
    "Violation": _VIOLATION,
    "CheckStats": _STATS,
    "Safe": "Safe(k=1)",
    "Unsafe": f"Unsafe(k=2, violations=({_VIOLATION},))",
    "Inconclusive": ("Inconclusive(max_bound=3, note='no bound up to 3 covers every send', "
                     f"bounded=((2, {_VIOLATION}),))"),
    "CheckOutcome": f"CheckOutcome(verdict=Safe(k=1), stats={_STATS})",
    "RunResult": (f"RunResult(outcome=<Outcome.TERMINATED: 'terminated'>, final={_CONFIGURATION}, "
                  f"trace=({_STEP},), steps_taken=1)"),
}


@pytest.mark.parametrize("name, make", BUILDERS, ids=[name for name, _ in BUILDERS])
def test_repr_equality_and_hash(name, make):
    one, other = make(), make()
    assert type(one).__name__ == name
    assert repr(one) == REPRS[name]
    assert one is not other
    assert one == other
    assert not one != other
    assert hash(one) == hash(other)


SLOTTED = [(name, make) for name, make in BUILDERS if name != "Machine"]  # caches in its __dict__


@pytest.mark.parametrize("name, make", SLOTTED, ids=[name for name, _ in SLOTTED])
def test_value_classes_are_slotted(name, make):
    value = make()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.no_such_field = 1


def test_every_public_value_class_is_pinned():
    assert [name for name, _ in BUILDERS] == list(REPRS)


def test_sibling_classes_with_the_same_fields_differ():
    assert Safe(1) != (1,)  # as a NamedTuple, Safe(1) would equal the tuple
    span = SourceSpan(1, 1)
    assert ParseError(span, "m") != ValidationError(span, "m")


def test_spans_take_no_part_in_equality():
    action = _action()
    assert Branch(action, End(), SourceSpan(1, 1)) == Branch(action, End(), SourceSpan(4, 2))
    assert hash(Branch(action, End(), SourceSpan(1, 1))) == \
        hash(Branch(action, End(), None))
    assert RecVar("t", SourceSpan(1, 2)) == RecVar("t", SourceSpan(9, 9))
    assert hash(RecVar("t", SourceSpan(1, 2))) == hash(RecVar("t"))


def test_a_star_import_binds_no_submodule():
    names = {}
    exec("from kmcheck import *", names)
    assert not [name for name, value in names.items() if isinstance(value, types.ModuleType)]
    assert {"check_kmc", "BoundedGraph", "is_terminated"} <= names.keys()
