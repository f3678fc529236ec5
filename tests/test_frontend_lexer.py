"""Tests for the C-subset tokenizer."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clexer_walker import walker_tokenize
from repro.frontend.clexer import Lexer, LexerError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind != "eof"]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "eof"]


def test_tokenize_identifiers_and_keywords():
    tokens = tokenize("for (int i = 0; i < n; i++)")
    assert tokens[0].kind == "keyword" and tokens[0].value == "for"
    assert any(t.kind == "ident" and t.value == "n" for t in tokens)


def test_tokenize_ends_with_eof():
    assert tokenize("x")[-1].kind == "eof"


def test_float_literal_with_suffix_keeps_suffix_text():
    token = tokenize("5.1f")[0]
    assert token.kind == "float"
    assert token.value == "5.1f"


def test_integer_literal():
    token = tokenize("118")[0]
    assert token.kind == "int" and token.value == "118"


def test_exponent_literal():
    token = tokenize("1.5e-3")[0]
    assert token.kind == "float" and token.value == "1.5e-3"


def test_malformed_exponent_raises():
    with pytest.raises(LexerError):
        tokenize("1.5e+")


def test_multi_character_operators():
    assert values("a <= b >= c == d != e") == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]


def test_increment_operator_tokenized_as_one():
    assert "++" in values("i++")


def test_modulo_operator():
    assert "%" in values("t % 2")


def test_brackets_and_punctuation():
    assert kinds("A[i][j];") == ["ident", "punct", "ident", "punct", "punct", "ident", "punct", "punct"]


def test_line_comments_are_skipped():
    assert values("a // comment\n b") == ["a", "b"]


def test_block_comments_are_skipped():
    assert values("a /* multi\nline */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexerError):
        tokenize("a /* oops")


def test_preprocessor_lines_are_skipped():
    assert values("#define N 512\n x") == ["x"]


def test_unknown_character_raises_with_position():
    with pytest.raises(LexerError) as excinfo:
        tokenize("a @ b")
    assert "line 1" in str(excinfo.value)


@pytest.mark.parametrize(
    "source, message, line, column",
    [
        ("a @ b", "unexpected character '@'", 1, 3),
        ("a\n  b $", "unexpected character '$'", 2, 5),
        ("a /* oops", "unterminated block comment", 1, 3),
        ("/* one */ x\n  y /* two\n", "unterminated block comment", 2, 5),
        ("1.5e+", "malformed exponent", 1, 6),
        ("x =\n 2e;", "malformed exponent", 2, 4),
        ("/* a\nb */ 3E-x", "malformed exponent", 2, 9),
    ],
)
def test_lexer_errors_report_line_and_column(source, message, line, column):
    with pytest.raises(LexerError) as excinfo:
        tokenize(source)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert str(excinfo.value) == f"{message} (line {line}, column {column})"


def test_line_and_column_tracking():
    tokens = tokenize("a\n  b")
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].line == 2 and tokens[1].column == 3


def test_full_stencil_line_tokenizes():
    source = "A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j]) / 118;"
    token_values = values(source)
    assert "A" in token_values and "5.1f" in token_values and "118" in token_values


# -- parity with the character-walking oracle ------------------------------------------

# Single characters of the C subset, fragments that sit on lexer edge cases
# (comments, exponents, suffixes), and non-ASCII characters whose str.isalpha /
# str.isdigit answers differ from the regex \w / \d classes: letters, a
# superscript digit, an Arabic-Indic decimal digit, a numeric letter and a
# numeric non-letter.
_PIECES = (
    list("aAeEfFlLuUxz_09.+-*/%<>=!&|()[]{};,# \t\r\n@$")
    + ["/*", "*/", "//", "1.5e+", "2e-", ".5", "0.5f", "7u", "for", "int", "double"]
    + ["é", "ß", "\u00b2", "\u0663", "\u4e00", "\u00bd", "\u00a0"]
)


def _outcome(lexer, source):
    try:
        return lexer(source)
    except LexerError as error:
        return (str(error), error.line, error.column)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_regex_lexer_matches_character_walker(source):
    assert _outcome(tokenize, source) == _outcome(walker_tokenize, source)


def test_regex_lexer_matches_walker_on_non_ascii_classes():
    # "\u00b2" is a digit to str.isdigit but not to \d; "\u00bd" is numeric
    # (\w) but neither a letter nor a digit; "\u4e00" is a numeric letter.
    for source in ("x\u00b2 = 1", "\u00b2\u00b2.5e\u00b2", "a\u00bd", "\u00bd", "\u4e00\u00b2 \u0663"):
        assert _outcome(tokenize, source) == _outcome(walker_tokenize, source), source
