"""Tokenizer for MiniC."""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = {
    "int",
    "uint",
    "char",
    "void",
    "if",
    "else",
    "while",
    "for",
    "do",
    "break",
    "continue",
    "return",
    "assert",
    "halt",
}

# Longest-match-first punctuation.
PUNCT = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
]

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

# ASCII only: ``str.isdigit``/``isalnum`` also accept ``²`` or ``١``.
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | _DIGITS


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'char', 'string', 'punct', 'kw', 'eof'
    text: str
    value: int | bytes | None
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}:{col}")
        self.line = line
        self.col = col


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, col)
            advance(end + 2 - i)
            continue
        start_line, start_col = line, col
        if ch in _DIGITS:
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise LexError("hex literal has no digits", start_line, start_col)
                value = int(source[i:j], 16)
            else:
                while j < n and source[j] in _DIGITS:
                    j += 1
                value = int(source[i:j])
            text = source[i:j]
            advance(j - i)
            tokens.append(Token("int", text, value, start_line, start_col))
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, None, start_line, start_col))
            continue
        if ch == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                if j + 1 >= n or source[j + 1] not in _ESCAPES:
                    raise LexError("bad escape in char literal", line, col)
                value = _ESCAPES[source[j + 1]]
                j += 2
            elif j < n:
                value = ord(source[j])
                if value > 255:
                    raise LexError("char literal is not a byte", line, col)
                j += 1
            else:
                raise LexError("unterminated char literal", line, col)
            if j >= n or source[j] != "'":
                raise LexError("unterminated char literal", line, col)
            j += 1
            text = source[i:j]
            advance(j - i)
            tokens.append(Token("char", text, value, start_line, start_col))
            continue
        if ch == '"':
            j = i + 1
            out = bytearray()
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 >= n or source[j + 1] not in _ESCAPES:
                        raise LexError("bad escape in string literal", line, col)
                    out.append(_ESCAPES[source[j + 1]])
                    j += 2
                else:
                    if ord(source[j]) > 255:
                        raise LexError("string literal holds a non-byte character", line, col)
                    out.append(ord(source[j]))
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            j += 1
            text = source[i:j]
            advance(j - i)
            tokens.append(Token("string", text, bytes(out), start_line, start_col))
            continue
        matched = None
        for p in PUNCT:
            if source.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise LexError(f"unexpected character {ch!r}", line, col)
        advance(len(matched))
        tokens.append(Token("punct", matched, None, start_line, start_col))
    tokens.append(Token("eof", "", None, line, col))
    return tokens
