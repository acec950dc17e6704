"""Independent character-loop oracle for the C-subset lexer.

:func:`tokenize` walks the text one character at a time with ``str``
predicates and a per-character line/column ``advance`` — the lexer
``repro.frontend.lexer.tokenize`` replaced with one compiled regex scan.
Tests hold the scan to it: the same ``(kind, text, line, column)`` for
every token, and the same code, message and span for every rejection.

It keeps one behaviour the product fixed: a non-ASCII digit starts a
NUMBER here (``int`` then raises, or reads ``'٣'`` as 3), where the
product reports SA001.  Compare the two on ASCII text.
"""

from __future__ import annotations

from repro.analysis.diagnostics import LEX_BAD_CHAR, LEX_UNTERMINATED_COMMENT, SourceSpan
from repro.frontend.lexer import PUNCTUATION, LexError, Token, TokenKind


def tokenize(source: str) -> list[Token]:
    """Tokenize a program; returns tokens ending with one EOF token."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def advance(text: str) -> None:
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            advance(source[i:end])
            i = end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError(
                    f"unterminated block comment at line {line}",
                    code=LEX_UNTERMINATED_COMMENT,
                    span=SourceSpan(line, col),
                )
            advance(source[i : end + 2])
            i = end + 2
            continue
        if ch == "#":
            end = source.find("\n", i)
            end = n if end == -1 else end
            text = source[i + 1 : end].strip()
            tokens.append(Token(TokenKind.PRAGMA, text, line, col))
            advance(source[i:end])
            i = end
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token(TokenKind.IDENT, source[i:j], line, col))
            advance(source[i:j])
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token(TokenKind.NUMBER, source[i:j], line, col))
            advance(source[i:j])
            i = j
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token(TokenKind.PUNCT, punct, line, col))
                advance(punct)
                i += len(punct)
                break
        else:
            raise LexError(
                f"unexpected character {ch!r} at line {line}, column {col}",
                code=LEX_BAD_CHAR,
                span=SourceSpan(line, col),
            )

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
