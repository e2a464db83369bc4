from __future__ import annotations

import random
import re

import pytest

from kmcheck.dsl import DslError, ParseError, SourceSpan, ValidationError, parse_system
from kmcheck.model import Direction, Machine, System, receive, send

from conftest import FIXTURES, fixture_text
from generators import random_roundtrip_system
from oracle import find_isomorphism, render_machine, render_system

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.kmc"))


def test_parse_handshake():
    system = parse_system("role a: b!hello<unit>; end\nrole b: a?hello<unit>; end\n")
    assert system.roles == ("a", "b")
    a = system.machines["a"]
    assert len(a.states) == 2
    ((_, action, _),) = a.transitions
    assert (action.peer, action.direction, action.label, action.sort) == \
        ("b", Direction.SEND, "hello", "unit")


def test_omitted_sort_defaults_to_unit():
    explicit = parse_system("role a: b!ping<unit>; end\nrole b: a?ping<unit>; end")
    implicit = parse_system("role a: b!ping; end\nrole b: a?ping; end")
    for role in ("a", "b"):
        assert find_isomorphism(
            explicit.machines[role], implicit.machines[role]) is not None
    assert render_system(explicit) == render_system(implicit)


def test_comments_and_whitespace_ignored():
    text = """
    // a comment
    role a :   b!x<int> ;  // trailing comment
        end
    role b: a?x<int>; end
    """
    assert parse_system(text).roles == ("a", "b")


def _errors_of(text: str):
    with pytest.raises(DslError) as info:
        parse_system(text)
    return info.value.errors


def test_truncated_input_positions_the_error():
    (err,) = _errors_of("role a: b!x<int>")
    assert isinstance(err, ParseError)
    assert (err.span.line, err.span.column) == (1, 17)
    assert "';'" in err.message


def test_unexpected_character_reported_with_position():
    errs = _errors_of("role a: b!x<unit>; end $")
    assert any("'$'" in e.message and e.span.column == 24 for e in errs)


def test_single_branch_braces_rejected():
    (err,) = _errors_of("role a: {b!x<unit>; end}\nrole b: a?x<unit>; end")
    assert "without braces" in err.message
    assert (err.span.line, err.span.column) == (1, 9)


def test_one_error_per_broken_declaration():
    errs = _errors_of("role a: ; end\nrole b: ; end\n")
    assert len(errs) == 2
    assert [(e.span.line, e.span.column) for e in errs] == [(1, 9), (2, 9)]


def test_missing_direction_keeps_the_next_declaration():
    # the token after the peer is not stepped over, so a `role` there still
    # starts the next declaration, whose own error is reported too
    errs = _errors_of("role a: {b\nrole b: end end\n")
    assert errs == (
        ParseError(SourceSpan(2, 1), "expected '!' or '?' after peer role, found 'role'"),
        ParseError(SourceSpan(2, 13), "expected 'role', found 'end'"),
    )


def test_duplicate_role_rejected():
    errs = _errors_of("role a: end\nrole a: end")
    assert any(
        isinstance(e, ValidationError) and "declared twice" in e.message
        and e.span.line == 2 for e in errs)


def test_unbound_variable_positioned():
    (err,) = _errors_of("role a: b!x<unit>; t\nrole b: a?x<unit>; end")
    assert isinstance(err, ValidationError)
    assert "'t'" in err.message
    assert (err.span.line, err.span.column) == (1, 20)


def test_unguarded_recursion_positioned():
    (err,) = _errors_of("role a: rec t. t")
    assert isinstance(err, ValidationError)
    assert (err.span.line, err.span.column) == (1, 16)


def test_self_communication_rejected():
    (err,) = _errors_of("role a: a!x<unit>; end")
    assert "itself" in err.message


def test_unknown_peer_rejected():
    (err,) = _errors_of("role a: ghost!x<unit>; end")
    assert "ghost" in err.message


def test_mixed_choice_rejected_via_dsl():
    errs = _errors_of(
        "role a: {b!x<unit>; end} or {b?y<unit>; end}\nrole b: a?x<unit>; end")
    assert any("mixes send and receive" in e.message for e in errs)


def test_duplicate_branch_rejected_via_dsl():
    errs = _errors_of(
        "role a: {b?x<int>; end} or {b?x<str>; end}\nrole b: a!x<int>; end")
    assert any("duplicate branch" in e.message for e in errs)


def test_empty_input_rejected():
    errs = _errors_of("// nothing here\n")
    assert any("no roles" in e.message for e in errs)


def test_keywords_cannot_name_roles():
    errs = _errors_of("role rec: end")
    assert errs  # 'rec' is a keyword, so the declaration cannot parse


def test_only_role_names_are_held_to_ascii():
    # labels, sorts and recursion variables are any word that starts with a letter
    system = parse_system("role a: rec τ. b!café<naïve>; τ\nrole b: rec t. a?café<naïve>; t")
    ((_, action, _),) = system.machines["a"].transitions
    assert (action.label, action.sort) == ("café", "naïve")
    # a role name is [A-Za-z][A-Za-z0-9_]*
    (error,) = _errors_of("role é: end")
    assert error == ValidationError(SourceSpan(1, 6), "invalid role name 'é'")


def test_canonical_render_of_handshake():
    system = parse_system(fixture_text("handshake.kmc"))
    assert render_system(system) == (
        "role a: b!hello<unit>; end\n"
        "role b: a?hello<unit>; end\n")


def test_render_names_binders_by_state():
    system = parse_system(fixture_text("flood.kmc"))
    assert render_system(system) == (
        "role a: rec t0. b!msg<unit>; t0\n"
        "role b: rec t0. a!msg<unit>; t0\n")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_roundtrip_isomorphic_and_idempotent(name):
    system = parse_system(fixture_text(name))
    text = render_system(system)
    again = parse_system(text)
    assert again.roles == system.roles
    for role in system.roles:
        assert find_isomorphism(system.machines[role], again.machines[role]) is not None
    assert render_system(again) == text


def test_machine_expansion_renders_parseable_text():
    system = parse_system(fixture_text("fib.kmc"))
    text = render_machine(system.machines["m"])
    assert text.startswith("rec t0. ")
    again = parse_system(f"role u: end\nrole w: end\nrole m: {text}\n")
    assert find_isomorphism(system.machines["m"], again.machines["m"]) is not None


def test_long_loop_renders_and_reparses():
    # 10k states per machine, far past the interpreter's recursion limit;
    # the one back edge closes the loop at the last state
    n = 10_000
    a = Machine(frozenset(range(n)), 0,
                tuple((i, send("b", f"m{i}"), (i + 1) % n) for i in range(n)))
    b = Machine(frozenset(range(n)), 0,
                tuple((i, receive("a", f"m{i}"), (i + 1) % n) for i in range(n)))
    system = System(("a", "b"), {"a": a, "b": b})
    text = render_system(system)
    sends = "; ".join(f"b!m{i}<unit>" for i in range(n))
    assert text.startswith(f"role a: rec t0. {sends}; t0\nrole b: rec t0. a?m0<unit>; ")
    assert parse_system(text).machines == system.machines


def test_random_roundtrip_sample():
    rng = random.Random(7)
    for _ in range(25):
        system = random_roundtrip_system(rng)
        text = render_system(system)
        again = parse_system(text)
        for role in system.roles:
            assert find_isomorphism(
                system.machines[role], again.machines[role]) is not None
        assert render_system(again) == text


# What may stand between two lexemes: blanks keep an action on one line,
# while a newline or a comment splits it over several.
_SEPARATORS = (" ", "  ", "\t", " \r", "\n", "\n    ", " // note\n", "\t// x!y<z>;\n  ")


def _pad(text: str, rng: random.Random) -> str:
    """`text` with a random separator, or none, between any two lexemes and
    a random one in place of each run of blanks; no word is split or joined
    to another."""
    lexemes = re.findall(r"\w+|[^\w\s]", text)
    out = [lexemes[0]]
    for before, after in zip(lexemes, lexemes[1:]):
        words = (before + after).replace("_", "a").isalnum()
        if words or rng.random() < 0.4:
            out.append(rng.choice(_SEPARATORS))
        out.append(after)
    return "".join(out)


def test_blanks_between_lexemes_do_not_change_the_machines():
    rng = random.Random(15)
    for _ in range(60):
        text = render_system(random_roundtrip_system(rng))
        plain = parse_system(text)
        for _ in range(3):
            padded = parse_system(_pad(text, rng))
            assert padded.roles == plain.roles
            assert padded.machines == plain.machines
