"""Tokenizer for the restricted C subset.

Handles identifiers, ASCII integer literals, the punctuation the
loop-nest grammar needs, ``//`` and ``/* */`` comments, and ``#pragma``
lines (returned as single tokens so the parser can attach them to the
following loop).  Tracks line/column for error messages.

The text is scanned once by one compiled regular expression; a token's
column is its offset from the start of its line.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.analysis.diagnostics import (
    LEX_BAD_CHAR,
    LEX_UNTERMINATED_COMMENT,
    Diagnostic,
    Severity,
    SourceSpan,
)


class TokenKind(Enum):
    IDENT = "ident"
    NUMBER = "number"
    PUNCT = "punct"
    PRAGMA = "pragma"
    EOF = "eof"


class Token(NamedTuple):
    """One lexical token.

    Attributes:
        kind: token class.
        text: exact source text (for PRAGMA, the line after '#', stripped).
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.text!r}@{self.line}:{self.column}"


PUNCTUATION = (
    "+=", "++", "<=", "==", "*", "+", "<", "=", ";", ",",
    "(", ")", "[", "]", "{", "}",
)


class LexError(ValueError):
    """Raised on characters outside the subset.

    Carries a structured :attr:`diagnostic` (code + source span) so the
    analysis layer can report it without re-parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = LEX_BAD_CHAR,
        span: SourceSpan | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.span = span

    @property
    def diagnostic(self) -> Diagnostic:
        """The error as a structured diagnostic."""
        return Diagnostic(self.code, Severity.ERROR, str(self), self.span)


#: One alternative per token class, tried in order at each offset.
#: Identifiers start as ``str.isalpha`` or ``_`` and go on as
#: ``str.isalnum`` or ``_`` (``\w``); ``[^\W\d]`` also admits the
#: non-decimal numerics (``²``, ``½``), which :func:`tokenize` rejects.
#: Anything else is one ``bad`` character.
_SCAN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<pragma>\#[^\n]*)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)
_KINDS = {kind.value: kind for kind in TokenKind}


def tokenize(source: str) -> list[Token]:
    """Tokenize a program; returns tokens ending with one EOF token."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # offset of the current line's first character
    for match in _SCAN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "space" or kind == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "bad" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            if source.startswith("/*", match.start()):
                raise LexError(
                    f"unterminated block comment at line {line}",
                    code=LEX_UNTERMINATED_COMMENT,
                    span=SourceSpan(line, column),
                )
            raise LexError(
                f"unexpected character {text[0]!r} at line {line}, column {column}",
                code=LEX_BAD_CHAR,
                span=SourceSpan(line, column),
            )
        if kind == "pragma":  # the whole line, handed to the parser
            text = text[1:].strip()
        tokens.append(Token(_KINDS[kind], text, line, column))
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


__all__ = ["LexError", "Token", "TokenKind", "tokenize"]
