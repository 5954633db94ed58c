"""Hand-written lexer for the core Cypher grammar and Seraph extensions.

Produces a flat token list; composite pattern arrows (``-[``, ``]->``,
``<-[``) are assembled by the parser from the single-character tokens, so
expressions like ``a < -1`` and patterns like ``<-[r]-`` co-exist without
lexer modes.
"""

from __future__ import annotations

import re
from typing import List

from repro.cypher.tokens import KEYWORDS, Token, TokenKind
from repro.errors import CypherSyntaxError

#: Unquoted ISO-8601 datetime literal, as Seraph's STARTING AT uses
#: (``2022-10-14T14:45h``).  Recognized before plain integers; plain
#: arithmetic like ``2022-10`` still lexes as numbers since the full
#: date shape is required.
_DATETIME_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}(?::\d{2})?[hHzZ]?")

#: The four hex digits of a ``\uXXXX`` string escape.
_HEX4 = re.compile(r"[0-9A-Fa-f]{4}")

_SINGLE = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMICOLON,
    "|": TokenKind.PIPE,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "^": TokenKind.CARET,
}

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "b": "\b",
    "f": "\f",
}


class Lexer:
    """Tokenizes one query string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                tokens.append(Token(TokenKind.EOF, "", None, self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    # -- internals -------------------------------------------------------------

    def _error(self, message: str) -> CypherSyntaxError:
        return CypherSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        consumed = self.text[self.pos : self.pos + count]
        for char in consumed:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return consumed

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.text):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        char = self._peek()

        if char.isdigit():
            datetime_match = _DATETIME_RE.match(self.text, self.pos)
            if datetime_match:
                text = datetime_match.group(0)
                self._advance(len(text))
                return Token(TokenKind.DATETIME, text, text, line, column)
            return self._number(line, column)
        if char in "'\"":
            return self._string(line, column)
        if char == "`":
            return self._quoted_identifier(line, column)
        if char.isalpha() or char == "_":
            return self._identifier(line, column)
        if char == "$":
            self._advance()
            name = self._raw_identifier()
            if not name:
                raise self._error("expected parameter name after '$'")
            return Token(TokenKind.PARAMETER, name, name, line, column)

        # Multi-character operators first.
        two = char + self._peek(1)
        if two == "<>":
            self._advance(2)
            return Token(TokenKind.NEQ, two, None, line, column)
        if two == "<=":
            self._advance(2)
            return Token(TokenKind.LE, two, None, line, column)
        if two == ">=":
            self._advance(2)
            return Token(TokenKind.GE, two, None, line, column)
        if two == "=~":
            self._advance(2)
            return Token(TokenKind.REGEX_MATCH, two, None, line, column)
        if two == "..":
            self._advance(2)
            return Token(TokenKind.DOTDOT, two, None, line, column)

        if char == ".":
            self._advance()
            return Token(TokenKind.DOT, char, None, line, column)
        if char == "=":
            self._advance()
            return Token(TokenKind.EQ, char, None, line, column)
        if char == "<":
            self._advance()
            return Token(TokenKind.LT, char, None, line, column)
        if char == ">":
            self._advance()
            return Token(TokenKind.GT, char, None, line, column)
        kind = _SINGLE.get(char)
        if kind is not None:
            self._advance()
            return Token(kind, char, None, line, column)
        raise self._error(f"unexpected character {char!r}")

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        # A '.' starts a fraction only when followed by a digit — '1..3'
        # must lex as INTEGER DOTDOT INTEGER for variable-length bounds.
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start : self.pos]
        if is_float:
            return Token(TokenKind.FLOAT, text, float(text), line, column)
        return Token(TokenKind.INTEGER, text, int(text), line, column)

    def _string(self, line: int, column: int) -> Token:
        quote = self._advance()
        out: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated string literal")
            char = self._advance()
            if char == quote:
                break
            if char == "\\":
                escape = self._advance()
                if escape == "u":
                    code = self._advance(4)
                    if len(code) < 4:
                        raise self._error("truncated unicode escape")
                    if not _HEX4.fullmatch(code):
                        raise self._error(f"invalid unicode escape '\\u{code}'")
                    out.append(chr(int(code, 16)))
                elif escape in _ESCAPES:
                    out.append(_ESCAPES[escape])
                else:
                    raise self._error(f"invalid escape sequence '\\{escape}'")
            else:
                out.append(char)
        text = "".join(out)
        return Token(TokenKind.STRING, text, text, line, column)

    def _quoted_identifier(self, line: int, column: int) -> Token:
        self._advance()
        start = self.pos
        while self.pos < len(self.text) and self._peek() != "`":
            self._advance()
        if self.pos >= len(self.text):
            raise self._error("unterminated quoted identifier")
        name = self.text[start : self.pos]
        self._advance()
        return Token(TokenKind.IDENT, name, name, line, column)

    def _raw_identifier(self) -> str:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self.text[start : self.pos]

    def _identifier(self, line: int, column: int) -> Token:
        name = self._raw_identifier()
        upper = name.upper()
        if upper in KEYWORDS:
            # value keeps the original spelling so keywords used as names
            # (labels, property keys, map keys) render back unchanged.
            return Token(TokenKind.KEYWORD, upper, name, line, column)
        return Token(TokenKind.IDENT, name, name, line, column)


def tokenize(text: str) -> List[Token]:
    """Tokenize a Cypher/Seraph query string."""
    return Lexer(text).tokenize()
