"""Tokenizer for the C stencil subset.

Only the constructs that can legally appear in an AN5D input program are
recognised: identifiers, integer and floating-point literals (with the usual
``f`` suffix), arithmetic and comparison operators, the modulo operator used
for double buffering, assignment, increments, and the bracketing punctuation
of loops and array subscripts.

The whole source is scanned by one compiled master expression: every
alternative is a token class or something to skip, and its last alternative
catches any other character as an error, so ``finditer`` leaves no gaps.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Pattern

KEYWORDS = {"for", "if", "else", "int", "float", "double", "const", "return", "void"}

# Multi-character operators must be listed before their prefixes: the regex
# alternation, like a prefix scan, takes the first operator that matches.
_OPERATORS = [
    "<=",
    ">=",
    "==",
    "!=",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "&&",
    "||",
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
]

_PUNCTUATION = "()[]{};,"


class LexerError(ValueError):
    """Raised on input that is not part of the supported C subset."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: str  # "ident", "keyword", "int", "float", "op", "punct", "eof"
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


@lru_cache(maxsize=64)
def _master(alpha: str = "", digit: str = "", alnum: str = "") -> Pattern[str]:
    """The master expression, with the non-ASCII characters of one source
    added to the letter, digit and letter-or-digit classes.

    Letters are what ``str.isalpha`` accepts, digits what ``str.isdigit``
    accepts: wider than the regex ``\\d`` (superscript digits) and not the
    same as ``\\w`` minus digits (numeric letters), so the classes are
    spelled out per source instead of borrowed from ``re``.
    """
    letter = f"[A-Za-z_{re.escape(alpha)}]"
    d = f"[0-9{re.escape(digit)}]"
    word = f"[0-9A-Za-z_{re.escape(alnum)}]"
    # A number is an int when its digits end it, or only an l/L/u/U suffix
    # follows; a fraction, an exponent or an f/F suffix makes it a float.
    mantissa = rf"(?=\.?{d}){d}*(?:\.{d}*)?"
    operators = "|".join(re.escape(op) for op in _OPERATORS)
    return re.compile(
        rf"""
        (?P<skip>[ \t\r\n]+ | //[^\n]* | \#[^\n]* | /\*(?s:.*?)\*/)
      | (?P<unterminated>/\*)
      | (?P<punct>[{re.escape(_PUNCTUATION)}])
      | (?P<op>{operators})
      | (?P<ident>{letter}{word}*)
      | (?P<int>{d}+(?![.eEfF]|{d})[lLuU]?)
      | (?P<badexp>{mantissa}[eE](?:[+-](?!{d})|(?![+-]|{d})))
      | (?P<float>{mantissa}(?:[eE][+-]?{d}+)?[fFlLuU]?)
      | (?P<error>(?s:.))
        """,
        re.VERBOSE,
    )


def _master_for(source: str) -> Pattern[str]:
    if source.isascii():
        return _master()
    extra = sorted({ch for ch in source if not ch.isascii()})
    return _master(
        "".join(ch for ch in extra if ch.isalpha()),
        "".join(ch for ch in extra if ch.isdigit()),
        "".join(ch for ch in extra if ch.isalnum()),
    )


class Lexer:
    """Tokenizer over a source string."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> Iterator[Token]:
        source = self.source
        line, line_start = 1, 0
        for match in _master_for(source).finditer(source):
            kind = match.lastgroup
            text = match[0]
            if kind == "skip":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = match.start() + text.rindex("\n") + 1
                continue
            column = match.start() - line_start + 1
            if kind == "ident":
                yield Token("keyword" if text in KEYWORDS else "ident", text, line, column)
            elif kind == "badexp":
                raise LexerError("malformed exponent", line, column + len(text))
            elif kind == "unterminated":
                raise LexerError("unterminated block comment", line, column)
            elif kind == "error":
                raise LexerError(f"unexpected character {text!r}", line, column)
            else:
                yield Token(kind, text, line, column)
        yield Token("eof", "", line, len(source) - line_start + 1)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, including the trailing EOF token."""
    return list(Lexer(source).tokens())
