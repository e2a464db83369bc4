"""Textual protocol descriptions.

Grammar (``//`` starts a line comment; ``role``, ``rec``, ``end`` and ``or``
are reserved words)::

    file     = { decl } ;
    decl     = "role" IDENT ":" ltype ;
    ltype    = "end" | "rec" IDENT "." ltype | IDENT | atom | branches ;
    atom     = IDENT ( "!" | "?" ) IDENT [ "<" IDENT ">" ] ";" ltype ;
    branches = "{" atom "}" { "or" "{" atom "}" } ;

An IDENT is a letter followed by letters, digits and ``_``, any Unicode
letters included, but a role name must be ``[A-Za-z][A-Za-z0-9_]*``.  A lone
action is written bare (``b!hello<unit>; end``); braces are reserved for
genuine choices between two or more branches.  An omitted payload sort
defaults to ``unit``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    Action,
    Branch,
    Choice,
    Direction,
    End,
    LocalType,
    Machine,
    RecBinder,
    RecVar,
    ROLE_NAME,
    System,
    check_local_type,
    has_errors,
    local_type_to_machine,
    validate_system,
)

KEYWORDS = ("role", "rec", "end", "or")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a source fragment on a single line."""

    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str


@dataclass(frozen=True)
class ValidationError:
    span: SourceSpan
    message: str


class DslError(ValueError):
    """Raised by `parse_system`; carries every collected error, in order."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(
            f"{e.span.line}:{e.span.column}: {e.message}" for e in self.errors))


class _Token(NamedTuple):
    kind: str  # "ident", a keyword, one of the punctuation marks, or "eof"
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


# One lexeme per match, told apart by `lastindex`; blanks (' ', '\t',
# '\r') match nothing and are skipped.  A word starts with a letter
# (`[^\W\d_]` also admits the odd numeral that is no letter, which `_lex`
# rejects) and continues with letters, digits or '_', as `str.isalnum` has
# them.  A comment stops before its newline.
_LEXEME = re.compile(r"(\n)|(//[^\n]*)|([^\W\d_]\w*)|([!?:;.<>{}])|([^ \t\r])")
_NEWLINE, _COMMENT, _WORD, _MARK = 1, 2, 3, 4


def _lex(text: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, line_start = 1, 0  # offset of the current line's first character
    comment_col = None  # where a comment took the rest of the current line
    search = _LEXEME.search
    m = search(text)
    while m is not None:
        group, start, lexeme = m.lastindex, m.start(), m.group()
        if group == _WORD and not lexeme[0].isalpha():
            group, lexeme = None, lexeme[0]
        col = start - line_start + 1
        if group == _NEWLINE:
            line, line_start, comment_col = line + 1, start + 1, None
        elif group == _COMMENT:
            comment_col = col
        elif group == _WORD:
            tokens.append(_Token(lexeme if lexeme in KEYWORDS else "ident", lexeme, line, col))
        elif group == _MARK:
            tokens.append(_Token(lexeme, lexeme, line, col))
        else:
            errors.append(ParseError(SourceSpan(line, col), f"unexpected character {lexeme!r}"))
        m = search(text, start + len(lexeme))
    # a comment moves no column, so input that ends in one ends where it began
    eof_col = comment_col if comment_col is not None else len(text) - line_start + 1
    tokens.append(_Token("eof", "", line, eof_col))
    return tokens, errors


def _span_of(first: _Token, last: _Token) -> SourceSpan:
    """Span from `first` through `last` when they share a line, else `first`'s."""
    if first.line == last.line and last.column >= first.column:
        return SourceSpan(first.line, first.column, last.column + len(last.text) - first.column)
    return first.span


class _Unexpected(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[_Token], errors: list[ParseError]):
        self.tokens = tokens
        self.errors = errors
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # `pos` never passes the final "eof" token, so `tokens[pos]` is `peek()`
    # and a token of any other kind can be stepped over directly.

    def accept(self, kind: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = f"'{tok.text}'" if tok.kind != "eof" else "end of input"
            self.errors.append(ParseError(tok.span, f"expected {what}, found {found}"))
            raise _Unexpected()
        self.pos += 1
        return tok

    def parse_file(self) -> list[tuple[_Token, LocalType]]:
        decls: list[tuple[_Token, LocalType]] = []
        while self.peek().kind != "eof":
            try:
                self.expect("role", "'role'")
                name = self.expect("ident", "role name")
                self.expect(":", "':' after role name")
                decls.append((name, self.parse_ltype()))
            except _Unexpected:
                # resynchronise at the next declaration
                while self.peek().kind not in ("role", "eof"):
                    self.advance()
        return decls

    def parse_ltype(self) -> LocalType:
        """One `ltype`, parsed with an explicit stack of the constructs still
        waiting for their continuation, so nesting costs no interpreter
        stack.  Any syntax error abandons the whole type."""
        # ("rec", var, span) | ("atom", action, span) | ("prefix", span)
        # | ("choice", span of '{', branches so far), innermost last
        pending: list[tuple] = []
        while True:
            tok = self.peek()
            if tok.kind == "end":
                self.advance()
                term = End(tok.span)
            elif tok.kind == "rec":
                self.advance()
                var = self.expect("ident", "recursion variable")
                self.expect(".", "'.' after recursion variable")
                pending.append(("rec", var.text, _span_of(tok, var)))
                continue
            elif tok.kind == "{":
                self.advance()
                pending.append(("choice", tok.span, []))
                pending.append(self.parse_atom())
                continue
            elif tok.kind == "ident" and self.peek(1).kind in ("!", "?"):
                pending.append(("prefix", tok.span))
                pending.append(self.parse_atom())
                continue
            elif tok.kind == "ident":
                self.advance()
                term = RecVar(tok.text, tok.span)
            else:
                found = f"'{tok.text}'" if tok.kind != "eof" else "end of input"
                self.errors.append(ParseError(
                    tok.span, f"expected 'end', 'rec', an action or a choice, found {found}"))
                raise _Unexpected()
            # `term` is complete: hand it to the constructs waiting for it
            while pending:
                frame = pending.pop()
                if frame[0] == "rec":
                    term = RecBinder(frame[1], term, frame[2])
                elif frame[0] == "atom":
                    term = Branch(frame[1], term, frame[2])
                elif frame[0] == "prefix":
                    term = Choice((term,), frame[1])
                else:
                    _, opening, branches = frame
                    branches.append(term)
                    self.expect("}", "'}' closing the branch")
                    if self.accept("or"):
                        self.expect("{", "'{'")
                        pending.append(frame)
                        pending.append(self.parse_atom())
                        break
                    if len(branches) < 2:
                        self.errors.append(ParseError(
                            opening,
                            "a choice needs at least two branches; "
                            "write a single action without braces"))
                        raise _Unexpected()
                    term = Choice(tuple(branches), opening)
            else:
                return term

    def parse_atom(self) -> tuple:
        """The action of an `atom` up to its ';', as an ("atom", action, span)
        frame waiting for the continuation."""
        peer = self.expect("ident", "peer role")
        mark = self.advance()
        if mark.kind not in ("!", "?"):
            self.errors.append(ParseError(mark.span, "expected '!' or '?' after peer role"))
            raise _Unexpected()
        label = self.expect("ident", "message label")
        last = label
        sort = "unit"
        if self.accept("<"):
            sort_tok = self.expect("ident", "payload sort")
            sort = sort_tok.text
            last = self.expect(">", "'>' closing the payload sort")
        self.expect(";", "';' after the action")
        direction = Direction.SEND if mark.kind == "!" else Direction.RECEIVE
        action = Action(peer.text, direction, label.text, sort)
        return ("atom", action, _span_of(peer, last))


def parse_system(text: str) -> System:
    """Parse a protocol description into a validated `System`.

    Raises `DslError` carrying positioned `ParseError`s for lexical and
    syntactic faults, or positioned `ValidationError`s for well-formedness
    faults (duplicate roles, unbound or unguarded recursion, mixed or
    duplicated branches, self-communication, unknown peers).
    """
    tokens, lex_errors = _lex(text)
    parser = _Parser(tokens, lex_errors)
    decls = parser.parse_file()
    if parser.errors:
        raise DslError(sorted(parser.errors, key=lambda e: (e.span.line, e.span.column)))

    failures: list[ValidationError] = []
    roles: list[str] = []
    seen: set[str] = set()
    for name_tok, _ in decls:
        name = name_tok.text
        if name in seen:
            failures.append(ValidationError(name_tok.span, f"role '{name}' declared twice"))
        elif not ROLE_NAME.match(name):
            failures.append(ValidationError(name_tok.span, f"invalid role name '{name}'"))
        else:
            roles.append(name)
        seen.add(name)
    if not decls:
        failures.append(ValidationError(SourceSpan(1, 1), "input declares no roles"))

    machines: dict[str, Machine] = {}
    for name_tok, lt in decls:
        for issue in check_local_type(lt, subject=name_tok.text, roles=seen):
            failures.append(ValidationError(issue.span or name_tok.span, issue.message))
    if failures:
        raise DslError(failures)
    for name_tok, lt in decls:
        machines[name_tok.text] = local_type_to_machine(lt)
    system = System(tuple(roles), machines)
    assert not has_errors(validate_system(system))
    return system

