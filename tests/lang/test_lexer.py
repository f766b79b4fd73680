"""Unit tests for the SML lexer."""

import sys

import pytest

from repro.lang.errors import LexError
from repro.lang import lexer
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestIntegers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_negative_tilde(self):
        assert values("~7") == [-7]

    def test_hex(self):
        assert values("0x1F") == [31]

    def test_negative_hex(self):
        assert values("~0x10") == [-16]

    def test_word_literal(self):
        toks = tokenize("0w255")
        assert toks[0].kind is TokKind.WORD
        assert toks[0].value == 255

    def test_hex_word(self):
        toks = tokenize("0wxff")
        assert toks[0].value == 255

    def test_zero(self):
        assert values("0") == [0]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits",
                                    lambda: 0)(),
                        reason="this interpreter converts decimal "
                               "strings of any length")
    @pytest.mark.parametrize("text, line, col", [
        ("val x = " + "1" * 5000, 1, 9),
        ("val x =\n  ~" + "2" * 5000, 2, 3),
        ("val w = 0w" + "3" * 5000, 1, 9),
    ], ids=["decimal", "negated", "word"])
    def test_decimal_past_the_int_string_limit(self, text, line, col):
        # CPython refuses to convert longer decimal strings; the lexer
        # reports it at the literal instead of raising ValueError.
        with pytest.raises(LexError, match="integer literal too long") \
                as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.col) == (line, col)

    def test_long_hex_literal_still_converts(self):
        assert values("0x" + "f" * 5000) == [16 ** 5000 - 1]


class TestReals:
    def test_simple(self):
        assert values("3.14") == [pytest.approx(3.14)]

    def test_exponent(self):
        assert values("1e10") == [pytest.approx(1e10)]

    def test_negative_exponent(self):
        assert values("2.5e~3") == [pytest.approx(2.5e-3)]

    def test_negative_real(self):
        assert values("~2.5") == [pytest.approx(-2.5)]

    def test_int_dot_requires_digits(self):
        # "3." is an int followed by a dot, not a real.
        assert kinds("3.") == [TokKind.INT, TokKind.DOT]


class TestStrings:
    def test_plain(self):
        assert values('"hello"') == ["hello"]

    def test_escapes(self):
        assert values(r'"a\nb\tc"') == ["a\nb\tc"]

    def test_decimal_escape(self):
        assert values(r'"\065"') == ["A"]

    def test_gap_escape(self):
        assert values('"ab\\\n   \\cd"') == ["abcd"]

    def test_control_escape(self):
        assert values(r'"\^A"') == ["\x01"]

    def test_control_escape_at_end_of_input(self):
        # Input that ends inside the escape is a LexError, not an
        # IndexError.
        with pytest.raises(LexError, match="unterminated escape"):
            tokenize('"\\^')

    def test_control_escape_below_at_sign(self):
        # A control code below @ would be chr() of a negative number.
        with pytest.raises(LexError, match="malformed control escape"):
            tokenize('"\\^ "')

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_char(self):
        toks = tokenize('#"x"')
        assert toks[0].kind is TokKind.CHAR
        assert toks[0].value == "x"

    def test_char_must_be_single(self):
        with pytest.raises(LexError):
            tokenize('#"xy"')


class TestIdentifiers:
    def test_alpha(self):
        assert kinds("foo bar'  baz_2") == [TokKind.ID] * 3

    def test_keywords(self):
        toks = tokenize("val fun end")
        assert all(t.kind is TokKind.KEYWORD for t in toks[:-1])

    def test_symbolic(self):
        assert kinds("+ <= >=") == [TokKind.SYMID] * 3

    def test_reserved_symbolic(self):
        for sym in ["=", "=>", "->", "|", ":", ":>", "#", "*"]:
            toks = tokenize(sym)
            assert toks[0].kind is TokKind.KEYWORD, sym

    def test_tyvars(self):
        toks = tokenize("'a ''eq 'b1")
        assert [t.kind for t in toks[:-1]] == [TokKind.TYVAR] * 3
        assert toks[1].text == "''eq"

    def test_long_symbolic_splits_on_reserved(self):
        # ":=" is an ordinary symbolic identifier.
        assert kinds(":=") == [TokKind.SYMID]

    def test_dots(self):
        assert kinds("A.b") == [TokKind.ID, TokKind.DOT, TokKind.ID]
        assert kinds("...") == [TokKind.DOTDOTDOT]


class TestComments:
    def test_simple(self):
        assert texts("a (* comment *) b") == ["a", "b"]

    def test_nested(self):
        assert texts("a (* x (* y *) z *) b") == ["a", "b"]

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize("a (* oops")

    def test_multiline(self):
        toks = tokenize("a (* one\ntwo *)\nb")
        assert toks[1].line == 3


class TestPositions:
    def test_line_col(self):
        toks = tokenize("val x =\n  5")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[3].line, toks[3].col) == (2, 3)

    def test_eof_token(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokKind.EOF

    def test_eof_after_trailing_blanks(self):
        # Matching stops before trailing blanks, so a long run of them
        # costs no more than a short one.
        toks = tokenize("x" + " \t\f\r" * 2500)
        assert [(t.kind, t.line, t.col) for t in toks] == [
            (TokKind.ID, 1, 1), (TokKind.EOF, 1, 10002)]


class TestPattern:
    def test_no_regex_syntax_newer_than_python_310(self):
        # Python 3.10's re rejects possessive quantifiers and atomic
        # groups; the project supports 3.10.
        for syntax in ("*+", "++", "?+", "}+", "(?>"):
            assert syntax not in lexer._TOKEN.pattern, syntax
