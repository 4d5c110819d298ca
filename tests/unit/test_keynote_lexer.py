"""Unit tests for the KeyNote expression lexer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AssertionSyntaxError
from repro.keynote.expr import parse_conditions
from repro.keynote.lexer import (
    Token,
    TokenStream,
    _read_escaped_string,
    _read_string,
    tokenize,
)


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == [Token("EOF", "", 0)]

    def test_string_literal(self):
        assert kinds('"hello"') == [("STRING", "hello")]

    def test_string_escapes(self):
        assert kinds(r'"a\"b\\c\nd"') == [("STRING", 'a"b\\c\nd')]

    def test_unterminated_string(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize('"dangling')

    def test_dangling_escape(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize('"oops\\')

    def test_integers(self):
        assert kinds("42") == [("INT", "42")]
        assert kinds("0") == [("INT", "0")]

    def test_floats(self):
        assert kinds("3.25") == [("FLOAT", "3.25")]
        assert kinds("1e6") == [("FLOAT", "1e6")]
        assert kinds("2.5e-3") == [("FLOAT", "2.5e-3")]

    def test_int_dot_is_concat_not_float(self):
        # "1 . x" — the dot must be an operator when not followed by digits.
        assert kinds("1 .x")[:2] == [("INT", "1"), ("OP", ".")]
        assert kinds("1.x")[:2] == [("INT", "1"), ("OP", ".")]

    def test_identifiers(self):
        assert kinds("app_domain HANDLE _var x9") == [
            ("IDENT", "app_domain"),
            ("IDENT", "HANDLE"),
            ("IDENT", "_var"),
            ("IDENT", "x9"),
        ]

    def test_two_char_operators_beat_one(self):
        assert kinds("&& || == != <= >= ~= ->") == [
            ("OP", o) for o in ("&&", "||", "==", "!=", "<=", ">=", "~=", "->")
        ]

    def test_single_equals(self):
        assert kinds("a = b") == [("IDENT", "a"), ("OP", "="), ("IDENT", "b")]

    def test_amp_vs_and(self):
        assert kinds("& &&") == [("OP", "&"), ("OP", "&&")]

    def test_arrow_vs_minus(self):
        assert kinds("- ->") == [("OP", "-"), ("OP", "->")]

    def test_garbage_rejected(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize("a ? b")

    def test_full_conditions_line(self):
        toks = kinds('(app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";')
        assert ("STRING", "DisCFS") in toks
        assert ("STRING", "RWX") in toks
        assert ("OP", ";") in toks

    def test_positions_recorded(self):
        toks = tokenize("a == b")
        assert toks[0].position == 0
        assert toks[1].position == 2
        assert toks[2].position == 5

    def test_string_position_is_opening_quote(self):
        toks = tokenize('HANDLE == "42" && x')
        assert (toks[2].kind, toks[2].position) == ("STRING", 10)
        assert (toks[3].value, toks[3].position) == ("&&", 15)
        assert tokenize(r'"a\"b" "c"')[1].position == 7

    def test_syntax_error_column_at_string(self):
        with pytest.raises(AssertionSyntaxError) as info:
            parse_conditions('HANDLE == "1" "x" -> "true";')
        assert info.value.column == 14

    def test_error_columns_unchanged(self):
        for text, column in (('a == "open', 10), ('a == "oops\\', 10),
                             ('"a\\"b', 5)):
            with pytest.raises(AssertionSyntaxError) as info:
                tokenize(text)
            assert info.value.column == column


class TestTokenStream:
    def test_advance_and_peek(self):
        stream = TokenStream(tokenize("a b c"))
        assert stream.current.value == "a"
        assert stream.peek().value == "b"
        stream.advance()
        assert stream.current.value == "b"

    def test_match_and_expect(self):
        stream = TokenStream(tokenize("( )"))
        assert stream.match_op("(") is not None
        assert stream.match_op("{") is None
        stream.expect_op(")")
        assert stream.at_end()

    def test_expect_failure(self):
        stream = TokenStream(tokenize("x"))
        with pytest.raises(AssertionSyntaxError):
            stream.expect_op("(")

    def test_advance_past_end_is_safe(self):
        stream = TokenStream(tokenize(""))
        for _ in range(3):
            stream.advance()
        assert stream.at_end()


def _read_or_error(reader, text):
    try:
        return reader(text, 0)
    except AssertionSyntaxError as exc:
        return ("error", str(exc), exc.column)


@given(body=st.text(alphabet='ab "\\\nt', max_size=12), tail=st.text(
    alphabet='ab "\\', max_size=4))
def test_property_fast_path_matches_escape_loop(body, tail):
    """With or without escapes, terminated or not, the one-slice fast path
    and the escape loop read the same literal and end offset, or raise the
    same error at the same column."""
    text = '"' + body + tail
    assert _read_or_error(_read_string, text) == _read_or_error(
        _read_escaped_string, text)
