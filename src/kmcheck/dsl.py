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
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    DEFAULT_SORT,
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


class SourceSpan(NamedTuple):
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


# One lexeme per match, told apart by `lastindex`; blanks (' ', '\t', '\r')
# and newlines match nothing and are skipped.  A word starts with a letter
# (`[^\W\d_]` also admits the odd numeral that is no letter, which `_lex`
# rejects) and continues with letters, digits or '_', as `str.isalnum` has
# them.  A comment stops before its newline.
_WORD_RE = r"[^\W\d_]\w*"
_TOKEN_RE = rf"(//[^\n]*)|({_WORD_RE})|([!?:;.<>{{}}])|([^ \t\r\n])"
_TOKEN = re.compile(_TOKEN_RE)
_COMMENT, _WORD, _MARK = 1, 2, 3
# The first alternative reads a whole action `peer!label<sort>;` with only
# blanks between its parts as one lexeme (groups 1-5); its `lastindex` is
# that of the label or of the '>'.  The token rules follow, shifted by 5.
_BLANKS = r"[ \t\r]*"
_LEXEME = re.compile(
    rf"({_WORD_RE}){_BLANKS}([!?]){_BLANKS}({_WORD_RE})"
    rf"(?:{_BLANKS}<{_BLANKS}({_WORD_RE}){_BLANKS}(>))?{_BLANKS};"
    rf"|{_TOKEN_RE}")
_ACTION_GROUPS = 5
# An action lexeme stands only where the grammar expects a local type or a
# branch, which is right after one of these tokens (an action ends in ';'):
# there the parser reads it exactly as it reads the tokens it stands for.
# Anywhere else, and for an action with a keyword or with a word that starts
# with no letter, its text is read again by the token rules alone.
_BEFORE_ACTION = frozenset((":", ".", ";", "{", "action"))
_RESERVED = frozenset(KEYWORDS)
_DIRECTION = {"!": Direction.SEND, "?": Direction.RECEIVE}


class _Tokens:
    """The lexemes of one text as parallel columns, the last one "eof".

    `kinds[i]` is "ident", a keyword, a punctuation mark, "action" or "eof";
    `texts[i]` is the lexeme, or for an action the pair (its `Action`, the
    offset just past its label or '>'); `offsets[i]` is where it starts.
    Line and column are worked out from an offset only where a `SourceSpan`
    is built.
    """

    __slots__ = ("kinds", "texts", "offsets", "line_starts")

    def __init__(self, kinds: list[str], texts: list, offsets: list[int],
                 line_starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.line_starts = line_starts

    def locate(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of the character at `offset`."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def span(self, i: int) -> SourceSpan:
        """Span of token `i`, which is no action."""
        return SourceSpan(*self.locate(self.offsets[i]), max(1, len(self.texts[i])))

    def span_of(self, first: int, last: int) -> SourceSpan:
        """Span from token `first` through token `last` when they share a
        line, else `first`'s."""
        start, last_start = self.offsets[first], self.offsets[last]
        line, column = self.locate(start)
        if bisect_right(self.line_starts, last_start) != line:
            return self.span(first)
        return SourceSpan(line, column, last_start + len(self.texts[last]) - start)


def _lex(text: str) -> tuple[_Tokens, list[ParseError]]:
    kinds: list[str] = []
    texts: list = []
    offsets: list[int] = []
    strays: list[tuple[int, str]] = []  # (offset, character) of each lexical error
    eof = len(text)
    # the matches still to read, innermost last: the whole text, and a
    # stretch of it that the token rules read again
    scans = [(_LEXEME.finditer(text), _ACTION_GROUPS)]
    while scans:
        matches, shift = scans[-1]
        for m in matches:
            group = m.lastindex - shift
            if group <= 0:  # an action
                peer, mark, label, sort = m.group(1, 2, 3, 4)
                if (kinds and kinds[-1] in _BEFORE_ACTION
                        and peer[0].isalpha() and label[0].isalpha()
                        and peer not in _RESERVED and label not in _RESERVED
                        and (sort is None or sort[0].isalpha() and sort not in _RESERVED)):
                    kinds.append("action")
                    texts.append((Action(peer, _DIRECTION[mark], label, sort or DEFAULT_SORT),
                                  m.end(m.lastindex)))
                    offsets.append(m.start())
                    continue
                scans.append((_TOKEN.finditer(text, m.start(), m.end()), 0))
                break
            lexeme = m.group()
            if group == _WORD:
                if not lexeme[0].isalpha():
                    # the numeral is a stray; the rest is read again
                    strays.append((m.start(), lexeme[0]))
                    scans.append((_TOKEN.finditer(text, m.start() + 1, m.end()), 0))
                    break
                kinds.append(lexeme if lexeme in _RESERVED else "ident")
            elif group == _MARK:
                kinds.append(lexeme)
            elif group == _COMMENT:
                # a comment moves no column, so input that ends in one ends
                # where it began
                if m.end() == len(text):
                    eof = m.start()
                continue
            else:
                strays.append((m.start(), lexeme))
                continue
            texts.append(lexeme)
            offsets.append(m.start())
        else:
            scans.pop()
    kinds.append("eof")
    texts.append("")
    offsets.append(eof)
    line_starts = [0]
    newline = text.find("\n")
    while newline >= 0:
        line_starts.append(newline + 1)
        newline = text.find("\n", newline + 1)
    tokens = _Tokens(kinds, texts, offsets, line_starts)
    errors = [ParseError(SourceSpan(*tokens.locate(offset)), f"unexpected character {char!r}")
              for offset, char in strays]
    return tokens, errors


class _Name(NamedTuple):
    """A declared role name and where it stands."""

    text: str
    span: SourceSpan


class _Unexpected(Exception):
    pass


class _Parser:
    """Recursive descent over the token columns, with an explicit stack.

    `pos` never passes the final "eof" token, so a token of any other kind
    can be stepped over directly.  An action token stands only where an
    `ltype` or an `atom` may begin (see `_BEFORE_ACTION`), and is read there
    exactly as its tokens would be.
    """

    def __init__(self, tokens: _Tokens, errors: list[ParseError]):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.errors = errors
        self.pos = 0

    def fail(self, i: int, message: str):
        self.errors.append(ParseError(self.tokens.span(i), message))
        raise _Unexpected()

    def found(self, i: int) -> str:
        return f"'{self.texts[i]}'" if self.kinds[i] != "eof" else "end of input"

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what: str) -> int:
        """Index of the next token, which must be of `kind`."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(i, f"expected {what}, found {self.found(i)}")
        self.pos = i + 1
        return i

    def parse_file(self) -> list[tuple[_Name, LocalType]]:
        kinds = self.kinds
        decls: list[tuple[_Name, LocalType]] = []
        while kinds[self.pos] != "eof":
            try:
                self.expect("role", "'role'")
                name = self.expect("ident", "role name")
                self.expect(":", "':' after role name")
                decls.append((_Name(self.texts[name], self.tokens.span(name)),
                              self.parse_ltype()))
            except _Unexpected:
                # resynchronise at the next declaration
                while kinds[self.pos] not in ("role", "eof"):
                    self.pos += 1
        return decls

    def parse_ltype(self) -> LocalType:
        """One `ltype`, parsed with an explicit stack of the constructs still
        waiting for their continuation, so nesting costs no interpreter
        stack.  Any syntax error abandons the whole type."""
        kinds, tokens = self.kinds, self.tokens
        # ("rec", var, span) | ("atom", action, span) | ("prefix", span)
        # | ("choice", span of '{', branches so far), innermost last
        pending: list[tuple] = []
        while True:
            i = self.pos
            kind = kinds[i]
            if kind == "action" or kind == "ident" and kinds[i + 1] in ("!", "?"):
                atom = self.parse_atom()
                # the single branch's choice spans the peer alone
                span = atom[2]
                pending.append(("prefix", SourceSpan(span.line, span.column, len(atom[1].peer))))
                pending.append(atom)
                continue
            if kind == "end":
                self.pos = i + 1
                term = End(tokens.span(i))
            elif kind == "rec":
                self.pos = i + 1
                var = self.expect("ident", "recursion variable")
                self.expect(".", "'.' after recursion variable")
                pending.append(("rec", self.texts[var], tokens.span_of(i, var)))
                continue
            elif kind == "{":
                self.pos = i + 1
                pending.append(("choice", tokens.span(i), []))
                pending.append(self.parse_atom())
                continue
            elif kind == "ident":
                self.pos = i + 1
                term = RecVar(self.texts[i], tokens.span(i))
            else:
                self.fail(i, "expected 'end', 'rec', an action or a choice, "
                             f"found {self.found(i)}")
            # `term` is complete: hand it to the constructs waiting for it
            while pending:
                frame = pending.pop()
                if frame[0] == "atom":
                    term = Branch(frame[1], term, frame[2])
                elif frame[0] == "prefix":
                    term = Choice((term,), frame[1])
                elif frame[0] == "rec":
                    term = RecBinder(frame[1], term, frame[2])
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
        i = self.pos
        tokens = self.tokens
        if self.kinds[i] == "action":
            self.pos = i + 1
            action, end = self.texts[i]
            start = tokens.offsets[i]
            return ("atom", action, SourceSpan(*tokens.locate(start), end - start))
        peer = self.expect("ident", "peer role")
        mark = self.pos
        if self.kinds[mark] != "eof":
            self.pos = mark + 1
        if self.kinds[mark] not in ("!", "?"):
            self.fail(mark, "expected '!' or '?' after peer role")
        label = last = self.expect("ident", "message label")
        sort = DEFAULT_SORT
        if self.accept("<"):
            sort = self.texts[self.expect("ident", "payload sort")]
            last = self.expect(">", "'>' closing the payload sort")
        self.expect(";", "';' after the action")
        action = Action(self.texts[peer], _DIRECTION[self.kinds[mark]], self.texts[label], sort)
        return ("atom", action, tokens.span_of(peer, last))


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

