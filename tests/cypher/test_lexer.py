"""Unit tests for the lexer."""

import pytest

from repro.cypher.lexer import tokenize
from repro.cypher.tokens import TokenKind
from repro.errors import CypherSyntaxError


def kinds(text):
    return [token.kind for token in tokenize(text)[:-1]]  # drop EOF


def texts(text):
    return [token.text for token in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("MATCH foo Match RETURN")
        assert tokens[0].kind is TokenKind.KEYWORD and tokens[0].text == "MATCH"
        assert tokens[1].kind is TokenKind.IDENT and tokens[1].value == "foo"
        assert tokens[2].text == "MATCH"  # keywords are case-insensitive
        assert tokens[3].text == "RETURN"

    def test_integers_and_floats(self):
        tokens = tokenize("42 3.14 1e3 2.5E-2")
        assert tokens[0].kind is TokenKind.INTEGER and tokens[0].value == 42
        assert tokens[1].kind is TokenKind.FLOAT and tokens[1].value == 3.14
        assert tokens[2].kind is TokenKind.FLOAT and tokens[2].value == 1000.0
        assert tokens[3].kind is TokenKind.FLOAT and tokens[3].value == 0.025

    def test_range_does_not_eat_dots(self):
        # '1..3' must lex INTEGER DOTDOT INTEGER for var-length bounds.
        assert kinds("1..3") == [TokenKind.INTEGER, TokenKind.DOTDOT,
                                 TokenKind.INTEGER]

    def test_strings_both_quotes(self):
        tokens = tokenize("'abc' \"def\"")
        assert tokens[0].value == "abc"
        assert tokens[1].value == "def"

    def test_string_escapes(self):
        assert tokenize(r"'a\nb'")[0].value == "a\nb"
        assert tokenize(r"'it\'s'")[0].value == "it's"
        assert tokenize(r"'uA'")[0].value == "uA"

    def test_unterminated_string(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("'oops")

    def test_invalid_escape(self):
        with pytest.raises(CypherSyntaxError):
            tokenize(r"'\q'")

    def test_unicode_escape_needs_four_hex_digits(self):
        assert tokenize(r"'\u00e9\u00C9'")[0].value == "\u00e9\u00c9"
        for escape in (r"\uzzzz", r"\u 12a", r"\u1_2a", r"\u+12a"):
            with pytest.raises(CypherSyntaxError,
                               match="invalid unicode escape") as caught:
                tokenize(f"RETURN '{escape}'")
            assert caught.value.line == 1 and caught.value.column > 0

    def test_backtick_identifier(self):
        token = tokenize("`weird name`")[0]
        assert token.kind is TokenKind.IDENT and token.value == "weird name"

    def test_parameter(self):
        token = tokenize("$win_start")[0]
        assert token.kind is TokenKind.PARAMETER and token.value == "win_start"

    def test_parameter_requires_name(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("$ x")


class TestOperators:
    def test_comparison_operators(self):
        assert kinds("= <> < > <= >= =~") == [
            TokenKind.EQ, TokenKind.NEQ, TokenKind.LT, TokenKind.GT,
            TokenKind.LE, TokenKind.GE, TokenKind.REGEX_MATCH,
        ]

    def test_arrow_components(self):
        # Pattern arrows decompose into single-char tokens for the parser.
        assert kinds("-[r]->") == [
            TokenKind.MINUS, TokenKind.LBRACKET, TokenKind.IDENT,
            TokenKind.RBRACKET, TokenKind.MINUS, TokenKind.GT,
        ]
        assert kinds("<-[r]-") == [
            TokenKind.LT, TokenKind.MINUS, TokenKind.LBRACKET, TokenKind.IDENT,
            TokenKind.RBRACKET, TokenKind.MINUS,
        ]

    def test_punctuation(self):
        assert kinds("( ) [ ] { } , : ; . | * / % ^ +") == [
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACKET,
            TokenKind.RBRACKET, TokenKind.LBRACE, TokenKind.RBRACE,
            TokenKind.COMMA, TokenKind.COLON, TokenKind.SEMICOLON,
            TokenKind.DOT, TokenKind.PIPE, TokenKind.STAR, TokenKind.SLASH,
            TokenKind.PERCENT, TokenKind.CARET, TokenKind.PLUS,
        ]

    def test_unexpected_character(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("@")


class TestTrivia:
    def test_line_comment(self):
        assert texts("MATCH // the rest\nRETURN") == ["MATCH", "RETURN"]

    def test_block_comment(self):
        assert texts("MATCH /* x \n y */ RETURN") == ["MATCH", "RETURN"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("/* never closed")

    def test_positions(self):
        tokens = tokenize("MATCH\n  (n)")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestDatetimeLiterals:
    def test_datetime_token(self):
        token = tokenize("2022-10-14T14:45h")[0]
        assert token.kind is TokenKind.DATETIME
        assert token.value == "2022-10-14T14:45h"

    def test_datetime_with_seconds(self):
        token = tokenize("2022-10-14T14:45:30")[0]
        assert token.kind is TokenKind.DATETIME

    def test_plain_subtraction_still_numbers(self):
        assert kinds("2022-10") == [
            TokenKind.INTEGER, TokenKind.MINUS, TokenKind.INTEGER
        ]

    def test_seraph_keywords(self):
        assert texts("REGISTER QUERY STARTING AT WITHIN EMIT EVERY ON "
                     "ENTERING SNAPSHOT") == [
            "REGISTER", "QUERY", "STARTING", "AT", "WITHIN", "EMIT", "EVERY",
            "ON", "ENTERING", "SNAPSHOT",
        ]
