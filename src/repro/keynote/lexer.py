"""Tokenizer for KeyNote licensee and conditions expressions.

One lexer serves both sub-languages; the parsers simply ignore tokens that
cannot appear in their grammar.  Token kinds:

``STRING``      quoted string literal (supports ``\\`` escapes)
``INT``         integer literal
``FLOAT``       floating-point literal
``IDENT``       attribute name / keyword (``true``, ``false``)
``OP``          one of the operator/punctuation lexemes below
``EOF``         end of input

Operators: ``( ) { } && || ! == != <= >= < > ~= -> ; + - * / % ^ . @ & $ , =``
(longest-match-first, so ``&&`` beats ``&``, ``==`` beats ``=`` and ``->``
beats ``-``; the single ``=`` only appears in Local-Constants bindings).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AssertionSyntaxError

_OPERATORS = (
    "&&", "||", "==", "!=", "<=", ">=", "~=", "->",
    "(", ")", "{", "}", "!", "<", ">", ";", "+", "-", "*", "/", "%", "^",
    ".", "@", "&", "$", ",", "=",
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize an expression string; raises AssertionSyntaxError on garbage."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == '"':
            start = i
            literal, i = _read_string(text, i)
            tokens.append(Token("STRING", literal, start))
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            tok, i = _read_number(text, i)
            tokens.append(tok)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], start))
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                # "." followed by a digit was handled as a number above, so a
                # bare "." here is concatenation.
                tokens.append(Token("OP", op, i))
                i += len(op)
                break
        else:
            raise AssertionSyntaxError(f"unexpected character {ch!r} in expression", column=i)
    tokens.append(Token("EOF", "", n))
    return tokens


def _read_string(text: str, i: int) -> tuple[str, int]:
    """Read a quoted string starting at ``text[i] == '"'``.

    Returns the literal and the offset just past its closing quote.
    """
    close = text.find('"', i + 1)
    if close != -1 and text.find("\\", i + 1, close) == -1:
        return text[i + 1:close], close + 1  # no escapes: one slice
    return _read_escaped_string(text, i)


def _read_escaped_string(text: str, i: int) -> tuple[str, int]:
    """:func:`_read_string`, decoding ``\\`` escapes one character at a time."""
    out: list[str] = []
    i += 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise AssertionSyntaxError("dangling escape in string literal", column=i)
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r"}.get(nxt, nxt))
            i += 2
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise AssertionSyntaxError("unterminated string literal", column=i)


def _read_number(text: str, i: int) -> tuple[Token, int]:
    start = i
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # Only a digit after the dot makes it part of the number;
            # otherwise it is the concatenation operator.
            if i + 1 < n and text[i + 1].isdigit():
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or text[i + 1] in "+-"
        ):
            seen_exp = True
            i += 2 if text[i + 1] in "+-" else 1
        else:
            break
    lexeme = text[start:i]
    kind = "FLOAT" if (seen_dot or seen_exp) else "INT"
    return Token(kind, lexeme, start), i


class TokenStream:
    """A small cursor over a token list used by both parsers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return tok

    def match_op(self, *ops: str) -> Token | None:
        tok = self.current
        if tok.kind == "OP" and tok.value in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        tok = self.current
        if tok.kind != "OP" or tok.value != op:
            raise AssertionSyntaxError(
                f"expected {op!r}, found {tok.value or tok.kind!r}", column=tok.position
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "EOF"
