from __future__ import annotations

import pytest

from kmcheck import model
from kmcheck.checker import check_kmc_detailed
from kmcheck.dsl import parse_system
from kmcheck.model import (
    Action,
    Branch,
    Choice,
    Direction,
    DuplicateBranch,
    End,
    Machine,
    MixedChoice,
    RecBinder,
    RecVar,
    Severity,
    System,
    UnboundVariable,
    UnguardedRecursion,
    local_type_to_machine,
    receive,
    send,
    validate_system,
)
from kmcheck.simulator import replay, simulate

from conftest import fixture_system, fixture_text
from oracle import find_isomorphism, prefix


def _machine(*transitions: tuple[int, Action, int]) -> Machine:
    states = {0} | {s for s, _, _ in transitions} | {d for _, _, d in transitions}
    return Machine(frozenset(states), 0, tuple(transitions))


def test_action_rendering():
    assert str(send("b", "hello")) == "b!hello<unit>"
    assert str(receive("m", "compute", "int")) == "m?compute<int>"


def test_spans_do_not_affect_equality():
    from kmcheck.dsl import SourceSpan

    hello = send("b", "hello")
    assert Branch(hello, End(), SourceSpan(3, 1)) == Branch(hello, End())
    assert hash(Branch(hello, End(), SourceSpan(3, 1))) == hash(Branch(hello, End()))
    assert RecVar("t", SourceSpan(1, 2)) == RecVar("t", SourceSpan(9, 9))
    assert hash(RecVar("t", SourceSpan(1, 2))) == hash(RecVar("t"))


def test_single_action_translates_to_two_states():
    m = local_type_to_machine(prefix(send("b", "hello"), End()))
    assert len(m.states) == 2
    assert m.initial == 0
    assert m.transitions == ((0, send("b", "hello"), 1),)
    assert m.is_terminal(1)


def test_self_loop_recursion_translates_to_one_state():
    lt = RecBinder("t", prefix(send("b", "ping"), RecVar("t")))
    m = local_type_to_machine(lt)
    assert len(m.states) == 1
    assert m.transitions == ((0, send("b", "ping"), 0),)


def test_identical_subterms_share_a_state():
    # both branches continue with the same sub-term, so it is one state
    tail = prefix(send("b", "done"), End())
    lt = Choice((
        Branch(receive("b", "l"), tail),
        Branch(receive("b", "r"), tail),
    ))
    m = local_type_to_machine(lt)
    assert len(m.states) == 3  # initial, shared middle, end


def test_unfolding_a_binder_once_is_isomorphic():
    def subst(t, var, repl):
        if isinstance(t, RecVar):
            return repl if t.var == var else t
        if isinstance(t, RecBinder):
            return t if t.var == var else RecBinder(t.var, subst(t.body, var, repl))
        if isinstance(t, Choice):
            return Choice(tuple(
                Branch(b.action, subst(b.tail, var, repl)) for b in t.branches))
        return t

    body = Choice((
        Branch(receive("b", "more"), RecVar("t")),
        Branch(receive("b", "stop"), End()),
    ))
    folded = RecBinder("t", body)
    unfolded = subst(body, "t", folded)
    m1 = local_type_to_machine(folded)
    m2 = local_type_to_machine(unfolded)
    assert find_isomorphism(m1, m2) is not None


def test_fib_translation_exact_shape():
    system = fixture_system("fib.kmc")
    u, m, w = (system.machines[r] for r in ("u", "m", "w"))
    assert (len(u.states), len(m.states), len(w.states)) == (4, 9, 3)
    assert sum(1 for s in w.states if w.is_terminal(s)) == 1

    expected_u = _machine(
        (0, send("m", "compute", "int"), 1),
        (1, receive("m", "wip", "int"), 1),
        (1, receive("m", "result", "int"), 2),
        (2, send("m", "stop", "unit"), 3),
    )
    expected_m = _machine(
        (0, receive("u", "compute", "int"), 1),
        (1, send("w", "task", "int"), 2),
        (2, send("w", "task", "int"), 3),
        (3, receive("w", "result", "int"), 4),
        (4, send("u", "wip", "int"), 5),
        (5, receive("w", "result", "int"), 6),
        (6, send("u", "result", "int"), 0),
        (0, receive("u", "stop", "unit"), 7),
        (7, send("w", "stop", "unit"), 8),
    )
    expected_w = _machine(
        (0, receive("m", "task", "int"), 1),
        (1, send("m", "result", "int"), 0),
        (0, receive("m", "stop", "unit"), 2),
    )
    assert find_isomorphism(u, expected_u) is not None
    assert find_isomorphism(m, expected_m) is not None
    assert find_isomorphism(w, expected_w) is not None


def test_unguarded_recursion_rejected():
    with pytest.raises(UnguardedRecursion):
        local_type_to_machine(RecBinder("t", RecVar("t")))
    with pytest.raises(UnguardedRecursion):
        local_type_to_machine(RecBinder("t", RecBinder("u", RecVar("t"))))


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariable):
        local_type_to_machine(prefix(send("b", "x"), RecVar("nope")))


def test_mixed_choice_rejected():
    lt = Choice((
        Branch(send("b", "x"), End()),
        Branch(receive("b", "y"), End()),
    ))
    with pytest.raises(MixedChoice):
        local_type_to_machine(lt)


def test_duplicate_branch_rejected():
    # same key even though the sorts differ
    lt = Choice((
        Branch(receive("b", "x", "int"), End()),
        Branch(receive("b", "x", "str"), End()),
    ))
    with pytest.raises(DuplicateBranch):
        local_type_to_machine(lt)


def test_shadowed_binder_resolves_innermost():
    inner = RecBinder("t", prefix(send("b", "inner"), RecVar("t")))
    outer = RecBinder("t", Choice((
        Branch(send("b", "once"), inner),
        Branch(send("b", "again"), RecVar("t")),
    )))
    m = local_type_to_machine(outer)
    # outer state loops to itself on "again"; "once" enters the inner loop
    assert (0, send("b", "again"), 0) in m.transitions
    inner_targets = [d for s, a, d in m.transitions if a.label == "inner"]
    assert inner_targets and all(
        (d, send("b", "inner"), d) in m.transitions for d in inner_targets)


# --- system validation ------------------------------------------------------


def test_validate_fib_is_clean():
    assert validate_system(fixture_system("fib.kmc")) == []


def _errors(diags):
    return {d.code for d in diags if d.severity is Severity.ERROR}


def _lints(diags):
    return {d.code for d in diags if d.severity is Severity.LINT}


def test_validate_missing_machine():
    system = System(("a", "b"), {"a": _machine((0, send("b", "x"), 1))})
    assert "missing-machine" in _errors(validate_system(system))
    # and the other way round: a machine for a role that is not declared
    m = local_type_to_machine(End())
    assert _errors(validate_system(System(("a",), {"a": m, "z": m}))) == {"unknown-machine"}


def test_validate_no_roles():
    assert _errors(validate_system(System((), {}))) == {"no-roles"}


def test_validate_duplicate_role():
    m = local_type_to_machine(End())
    system = System(("a", "a"), {"a": m})
    assert "duplicate-role" in _errors(validate_system(system))


def test_validate_bad_role_name():
    m = local_type_to_machine(End())
    system = System(("2bad",), {"2bad": m})
    assert "bad-role-name" in _errors(validate_system(system))


def test_validate_self_communication():
    system = System(("a", "b"), {
        "a": _machine((0, send("a", "x"), 1)),
        "b": local_type_to_machine(End()),
    })
    assert "self-communication" in _errors(validate_system(system))


def test_validate_unknown_peer():
    system = System(("a", "b"), {
        "a": _machine((0, send("ghost", "x"), 1)),
        "b": local_type_to_machine(End()),
    })
    assert "unknown-peer" in _errors(validate_system(system))


def test_validate_nondeterminism():
    system = System(("a", "b"), {
        "a": _machine((0, send("b", "x", "int"), 1), (0, send("b", "x", "str"), 2)),
        "b": local_type_to_machine(End()),
    })
    assert "nondeterminism" in _errors(validate_system(system))


def test_validate_mixed_state():
    system = System(("a", "b"), {
        "a": _machine((0, send("b", "x"), 1), (0, receive("b", "y"), 2)),
        "b": local_type_to_machine(End()),
    })
    assert "mixed-state" in _errors(validate_system(system))


def test_validate_unreachable_state():
    m = Machine(frozenset({0, 1, 2}), 0, ((0, send("b", "x"), 1),))
    system = System(("a", "b"), {"a": m, "b": local_type_to_machine(End())})
    assert "unreachable-state" in _errors(validate_system(system))


def test_validate_dangling_transition_and_bad_initial():
    bad_tr = Machine(frozenset({0, 1}), 0, ((0, send("b", "x"), 7),))
    bad_init = Machine(frozenset({1}), 0, ())
    end_b = local_type_to_machine(End())
    assert "dangling-transition" in _errors(
        validate_system(System(("a", "b"), {"a": bad_tr, "b": end_b})))
    assert "bad-initial" in _errors(
        validate_system(System(("a", "b"), {"a": bad_init, "b": end_b})))


def test_validate_non_directed_choice_is_a_lint_not_an_error():
    system = System(("a", "b", "c"), {
        "a": _machine((0, send("b", "x"), 1), (0, send("c", "y"), 1)),
        "b": local_type_to_machine(Choice((Branch(receive("a", "x"), End()),))),
        "c": local_type_to_machine(Choice((Branch(receive("a", "y"), End()),))),
    })
    diags = validate_system(system)
    assert _errors(diags) == set()
    assert "non-directed-choice" in _lints(diags)


def test_a_system_is_validated_once(monkeypatch):
    diagnosed = []
    real = model._diagnose

    def counted(system):
        diagnosed.append(system)
        return real(system)

    monkeypatch.setattr(model, "_diagnose", counted)
    system = parse_system(fixture_text("fib.kmc"))
    check_kmc_detailed(system)
    simulate(system, bound=1)
    replay(system, (), bound=1)
    assert diagnosed == [system]
    # every caller gets a list of its own
    validate_system(system).append("mine")
    assert validate_system(system) == []


def test_isomorphism_rejects_mismatches():
    m1 = _machine((0, send("b", "x"), 1))
    m2 = _machine((0, send("b", "y"), 1))
    assert find_isomorphism(m1, m2) is None
    m3 = _machine((0, send("b", "x"), 1), (1, send("b", "x"), 2))
    assert find_isomorphism(m1, m3) is None
    # same sizes and actions, but the second machine's `y` does not lead back
    loop_back = _machine((0, send("b", "x"), 1), (1, receive("b", "y"), 0))
    loop_here = _machine((0, send("b", "x"), 1), (1, receive("b", "y"), 1))
    assert find_isomorphism(loop_back, loop_here) is None


def test_isomorphism_found_under_relabelling():
    m1 = _machine((0, send("b", "x"), 1), (1, receive("b", "y"), 0))
    m2 = Machine(frozenset({5, 9}), 5, (
        (5, send("b", "x"), 9), (9, receive("b", "y"), 5)))
    assert find_isomorphism(m1, m2) == {0: 5, 1: 9}
