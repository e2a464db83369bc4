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
    """1-based line and column where a source fragment starts."""

    line: int
    column: int


@dataclass(slots=True, unsafe_hash=True)
class ParseError:
    span: SourceSpan
    message: str


@dataclass(slots=True, unsafe_hash=True)
class ValidationError:
    span: SourceSpan
    message: str


class DslError(ValueError):
    """Raised by `parse_system`; carries every collected error, in order."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(
            f"{e.span.line}:{e.span.column}: {e.message}" for e in self.errors))


# One lexeme per match, as the groups (blanks, comment, word, mark, stray):
# the blanks (' ', '\t', '\r') and newlines before it, then the lexeme in
# one of the other four.  The last match holds only the blanks at the end
# (`\Z`), so they are read once, not again from each of them.  A word
# starts with a letter (`[^\W\d_]` also admits the odd numeral that is no
# letter, which `_lex` rejects) and continues with letters, digits or '_',
# as `str.isalnum` has them.  A comment stops before its newline.
_TOKEN = re.compile(
    r"([ \t\r\n]*)(?:(//[^\n]*)|([^\W\d_]\w*)|([!?:;.<>{}])|([^ \t\r\n])|\Z)")
_RESERVED = frozenset(KEYWORDS)
_DIRECTION = {"!": Direction.SEND, "?": Direction.RECEIVE}


class _Tokens(NamedTuple):
    """The lexemes of one text as parallel columns, the last one "eof".

    `kinds[i]` is "ident", a keyword, a punctuation mark or "eof";
    `texts[i]` is the lexeme and `offsets[i]` where it starts.  Line and
    column are worked out from an offset only where a `SourceSpan` is built.
    """

    kinds: list[str]
    texts: list[str]
    offsets: list[int]
    line_starts: list[int]

    def locate(self, offset: int) -> SourceSpan:
        """Line and column of the character at `offset`."""
        line = bisect_right(self.line_starts, offset)
        return SourceSpan(line, offset - self.line_starts[line - 1] + 1)

    def span(self, i: int) -> SourceSpan:
        """Where token `i` starts."""
        return self.locate(self.offsets[i])


def _lex(text: str) -> tuple[_Tokens, list[ParseError]]:
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    strays: list[tuple[int, str]] = []  # (offset, character) of each lexical error
    eof = len(text)
    at = 0  # the offset of the next match, as the sum of the lengths before it
    for blanks, comment, word, mark, stray in _TOKEN.findall(text):
        at += len(blanks)
        if word:
            # a word may start with a numeral that is no letter: it and each
            # character after it up to the first letter is a stray
            while word and not word[0].isalpha():
                strays.append((at, word[0]))
                at += 1
                word = word[1:]
            if not word:
                continue
            kinds.append(word if word in _RESERVED else "ident")
            lexeme = word
        elif mark:
            kinds.append(mark)
            lexeme = mark
        elif comment:
            # a comment moves no column, so input that ends in one ends
            # where it began
            if at + len(comment) == len(text):
                eof = at
            at += len(comment)
            continue
        elif stray:
            strays.append((at, stray))
            at += 1
            continue
        else:  # the blanks at the end
            continue
        texts.append(lexeme)
        offsets.append(at)
        at += len(lexeme)
    kinds.append("eof")
    texts.append("")
    offsets.append(eof)
    line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
    tokens = _Tokens(kinds, texts, offsets, line_starts)
    errors = [ParseError(tokens.locate(offset), f"unexpected character {char!r}")
              for offset, char in strays]
    return tokens, errors


class _Name(NamedTuple):
    """A declared role name and the index of its token."""

    text: str
    token: int


class _Unexpected(Exception):
    pass


class _Parser:
    """Recursive descent over the token columns, with an explicit stack.

    `pos` never passes the final "eof" token, so a token of any other kind
    can be stepped over directly.  Every action is read by `parse_atom`.
    Of the parsed types only a `Branch` (at its peer) and a `RecVar` carry a
    span, as only their faults are reported by `check_local_type`; the span
    of a role name or of a '{' is worked out where an error about it is
    raised.
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
                decls.append((_Name(self.texts[name], name), self.parse_ltype()))
            except _Unexpected:
                # resynchronise at the next declaration
                while kinds[self.pos] not in ("role", "eof"):
                    self.pos += 1
        return decls

    def parse_ltype(self) -> LocalType:
        """One `ltype`, parsed with an explicit stack of the constructs still
        waiting for their continuation, so nesting costs no interpreter
        stack.  Any syntax error abandons the whole type."""
        kinds = self.kinds
        # ("rec", var) | ("prefix", action, span) | ("branch", action, span)
        # | ("choice", index of '{', branches so far), innermost last
        pending: list[tuple] = []
        while True:
            i = self.pos
            kind = kinds[i]
            if kind == "ident" and kinds[i + 1] in ("!", "?"):
                pending.append(self.parse_atom("prefix"))
                continue
            if kind == "end":
                self.pos = i + 1
                term = End()
            elif kind == "rec":
                self.pos = i + 1
                var = self.expect("ident", "recursion variable")
                self.expect(".", "'.' after recursion variable")
                pending.append(("rec", self.texts[var]))
                continue
            elif kind == "{":
                self.pos = i + 1
                pending.append(("choice", i, []))
                pending.append(self.parse_atom("branch"))
                continue
            elif kind == "ident":
                self.pos = i + 1
                term = RecVar(self.texts[i], self.tokens.span(i))
            else:
                self.fail(i, "expected 'end', 'rec', an action or a choice, "
                             f"found {self.found(i)}")
            # `term` is complete: hand it to the constructs waiting for it
            while pending:
                frame = pending.pop()
                if frame[0] == "prefix":
                    term = Choice((Branch(frame[1], term, frame[2]),))
                elif frame[0] == "branch":
                    term = Branch(frame[1], term, frame[2])
                elif frame[0] == "rec":
                    term = RecBinder(frame[1], term)
                else:
                    _, opening, branches = frame
                    branches.append(term)
                    self.expect("}", "'}' closing the branch")
                    if self.accept("or"):
                        self.expect("{", "'{'")
                        pending.append(frame)
                        pending.append(self.parse_atom("branch"))
                        break
                    if len(branches) < 2:
                        self.fail(opening, "a choice needs at least two branches; "
                                           "write a single action without braces")
                    term = Choice(tuple(branches))
            else:
                return term

    def parse_atom(self, tag: str) -> tuple[str, Action, SourceSpan]:
        """The action of an `atom` up to its ';', as a `tag` frame with the
        action and the span of its peer."""
        kinds, texts = self.kinds, self.texts
        peer = self.expect("ident", "peer role")
        mark = self.pos
        if kinds[mark] not in ("!", "?"):
            self.fail(mark, f"expected '!' or '?' after peer role, found {self.found(mark)}")
        self.pos = mark + 1
        label = self.expect("ident", "message label")
        sort = DEFAULT_SORT
        if self.accept("<"):
            sort = texts[self.expect("ident", "payload sort")]
            self.expect(">", "'>' closing the payload sort")
        self.expect(";", "';' after the action")
        action = Action(texts[peer], _DIRECTION[kinds[mark]], texts[label], sort)
        return tag, action, self.tokens.span(peer)


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
    for (name, token), _ in decls:
        if name in seen:
            failures.append(ValidationError(tokens.span(token), f"role '{name}' declared twice"))
        elif not ROLE_NAME.match(name):
            failures.append(ValidationError(tokens.span(token), f"invalid role name '{name}'"))
        else:
            roles.append(name)
        seen.add(name)
    if not decls:
        failures.append(ValidationError(SourceSpan(1, 1), "input declares no roles"))

    for name, lt in decls:
        failures.extend(ValidationError(issue.span, issue.message)
                        for issue in check_local_type(lt, subject=name.text, roles=seen))
    if failures:
        raise DslError(failures)
    system = System(tuple(roles), {name.text: local_type_to_machine(lt) for name, lt in decls})
    assert not has_errors(validate_system(system))
    return system

