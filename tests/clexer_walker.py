"""Character-walking oracle for the C-subset tokenizer.

:mod:`repro.frontend.clexer` tokenizes with one compiled regular expression.
This module keeps the straightforward character walker it replaced — one
``_advance`` per character, ``str.isalpha``/``str.isdigit`` classification —
so the property tests can hold the regex lexer to it token for token,
including the position and message of every :class:`LexerError`.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.frontend.clexer import KEYWORDS, LexerError, Token

# Multi-character operators must be listed before their prefixes.
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

_PUNCTUATION = {"(", ")", "[", "]", "{", "}", ";", ","}


class WalkerLexer:
    """The character-at-a-time tokenizer the regex lexer is held to."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif self.source.startswith("//", self.pos):
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            elif self.source.startswith("/*", self.pos):
                end = self.source.find("*/", self.pos + 2)
                if end < 0:
                    raise self._error("unterminated block comment")
                while self.pos < end + 2:
                    self._advance()
            elif ch == "#":
                # Preprocessor lines (e.g. #define SIZE 512) are skipped; the
                # frontend takes sizes as runtime parameters.
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                yield Token("eof", "", self.line, self.column)
                return
            start_line, start_col = self.line, self.column
            ch = self.source[self.pos]
            if ch.isalpha() or ch == "_":
                yield self._lex_identifier(start_line, start_col)
            elif ch.isdigit() or (ch == "." and self._peek_is_digit(1)):
                yield self._lex_number(start_line, start_col)
            elif ch in _PUNCTUATION:
                self._advance()
                yield Token("punct", ch, start_line, start_col)
            else:
                op = self._match_operator()
                if op is None:
                    raise self._error(f"unexpected character {ch!r}")
                yield Token("op", op, start_line, start_col)

    def _peek_is_digit(self, lookahead: int) -> bool:
        idx = self.pos + lookahead
        return idx < len(self.source) and self.source[idx].isdigit()

    def _lex_identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.source) and (
            self.source[self.pos].isalnum() or self.source[self.pos] == "_"
        ):
            self._advance()
        text = self.source[start : self.pos]
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        while self.pos < len(self.source) and self.source[self.pos].isdigit():
            self._advance()
        if self.pos < len(self.source) and self.source[self.pos] == ".":
            is_float = True
            self._advance()
            while self.pos < len(self.source) and self.source[self.pos].isdigit():
                self._advance()
        if self.pos < len(self.source) and self.source[self.pos] in "eE":
            is_float = True
            self._advance()
            if self.pos < len(self.source) and self.source[self.pos] in "+-":
                self._advance()
            if not (self.pos < len(self.source) and self.source[self.pos].isdigit()):
                raise self._error("malformed exponent")
            while self.pos < len(self.source) and self.source[self.pos].isdigit():
                self._advance()
        if self.pos < len(self.source) and self.source[self.pos] in "fF":
            is_float = True
            self._advance()
        elif self.pos < len(self.source) and self.source[self.pos] in "lLuU":
            self._advance()
        text = self.source[start : self.pos]
        return Token("float" if is_float else "int", text, line, column)

    def _match_operator(self) -> str | None:
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return op
        return None


def walker_tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, including the trailing EOF token."""
    return list(WalkerLexer(source).tokens())
