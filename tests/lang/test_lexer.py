"""Tests for the while-language lexer: token texts, their positions and
lexical errors."""

import time

import pytest

from repro.errors import ParseError
from repro.lang.lexer import (
    KEYWORDS,
    NOT_IDENTIFIERS,
    position,
    positions,
    tokenize,
)
from repro.lang.parser import parse

#: Seconds a one-mebibyte input may take to lex; a linear lexer needs
#: a few milliseconds, one that backtracks over blank runs hours.
_LINEAR_BOUND_S = 2.0

_MIB = 1 << 20


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class TestTokenize:
    def test_empty_source(self):
        assert tokenize("") == [""]

    def test_keywords_recognized(self):
        words = "class method loop while if else new null"
        texts = tokenize(words)
        assert texts == words.split() + [""]
        assert all(text in NOT_IDENTIFIERS for text in texts)

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_keyword_is_not_an_identifier(self, keyword):
        with pytest.raises(ParseError) as exc:
            parse("class %s { }" % keyword)
        assert (exc.value.line, exc.value.column) == (1, 7)
        assert "expected class name, found %r" % keyword in str(exc.value)

    def test_identifiers(self):
        texts = tokenize("foo bar_baz $tmp classy")
        assert texts == ["foo", "bar_baz", "$tmp", "classy", ""]
        assert not any(text in NOT_IDENTIFIERS for text in texts[:-1])

    def test_generated_labels_lex_as_one_token(self):
        # Labels like Main:main/Order survive print/parse round trips.
        assert tokenize("Main:main/Order_2") == ["Main:main/Order_2", ""]

    def test_array_marker_single_token(self):
        assert tokenize("new C[]") == ["new", "C", "[]", ""]

    def test_punctuation(self):
        texts = tokenize("{ } ( ) ; , = . @ *")
        assert texts == ["{", "}", "(", ")", ";", ",", "=", ".", "@", "*", ""]
        assert all(text in NOT_IDENTIFIERS for text in texts)

    def test_comments_skipped(self):
        assert tokenize("x // a comment with = and ;\ny") == ["x", "y", ""]

    @pytest.mark.parametrize(
        "source, texts",
        [
            ("ab  ", ["ab", ""]),
            ("ab // done", ["ab", ""]),
            ("ab\n\t\n", ["ab", ""]),
            ("  ", [""]),
            ("// only", [""]),
        ],
    )
    def test_one_eof_after_blanks_or_a_comment(self, source, texts):
        assert tokenize(source) == texts

    def test_slashes_inside_identifier_are_not_a_comment(self):
        assert tokenize("a//b") == ["a//b", ""]

    def test_dotted_name_splits(self):
        assert tokenize("a.b") == ["a", ".", "b", ""]

    def test_line_and_column_tracking(self):
        assert list(positions("a\n  b")) == [(1, 1), (2, 3), (2, 4)]
        assert position("a\n  b", 1) == (2, 3)

    def test_eof_position(self):
        assert position("a\n", 1) == (2, 1)
        assert position("ab  ", 1) == (1, 5)
        # After a trailing comment EOF sits at the comment's '//'.
        assert position("x\n  y // done", 2) == (2, 5)
        assert position("x // a // b", 1) == (1, 3)

    def test_one_position_per_token(self):
        source = "class A {\n\tfield f; // c\n}\n  "
        assert len(list(positions(source))) == len(tokenize(source))

    def test_error_position_after_blanks(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x =\n \t[ y")
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert "unexpected character '['" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x = %")
        assert (exc.value.line, exc.value.column) == (1, 5)

    def test_first_bad_character_in_text_order_wins(self):
        with pytest.raises(ParseError) as exc:
            tokenize("a %\nb # % #")
        assert str(exc.value) == "line 1, column 3: unexpected character '%'"
        with pytest.raises(ParseError) as exc:
            tokenize("a\n# b %")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_bad_character_inside_a_comment_is_skipped(self):
        assert tokenize("x // 100% [sic]\ny") == ["x", "y", ""]


class TestLinearTime:
    """Blank runs, comments and the error position take time linear in
    the text: the daemon accepts bodies of several mebibytes, and its
    deadlines do not cover the frontend."""

    def test_mebibyte_of_blanks(self):
        texts, seconds = _timed(lambda: tokenize(" " * _MIB))
        assert texts == [""]
        assert seconds < _LINEAR_BOUND_S

    def test_token_then_a_mebibyte_of_blanks(self):
        source = "x" + " " * _MIB
        texts, seconds = _timed(lambda: tokenize(source))
        assert texts == ["x", ""]
        assert seconds < _LINEAR_BOUND_S
        assert position(source, 1) == (1, _MIB + 2)

    def test_many_comment_lines(self):
        source = "x\n" + "// a comment line\n" * 200_000 + "y"
        texts, seconds = _timed(lambda: tokenize(source))
        assert texts == ["x", "y", ""]
        assert seconds < _LINEAR_BOUND_S

    def test_error_after_a_mebibyte_of_blanks(self):
        def lex():
            with pytest.raises(ParseError) as exc:
                tokenize(" " * _MIB + "\n%")
            return exc.value

        error, seconds = _timed(lex)
        assert (error.line, error.column) == (2, 1)
        assert "unexpected character '%'" in str(error)
        assert seconds < _LINEAR_BOUND_S

    def test_error_among_many_distinct_bad_characters(self):
        # 60,000 distinct code points from U+4E00 on, each a bad token.
        source = "x\n" + "".join(map(chr, range(0x4E00, 0x4E00 + 60_000)))

        def lex():
            with pytest.raises(ParseError) as exc:
                tokenize(source)
            return exc.value

        error, seconds = _timed(lex)
        assert (error.line, error.column) == (2, 1)
        assert "unexpected character '\u4e00'" in str(error)
        assert seconds < _LINEAR_BOUND_S
