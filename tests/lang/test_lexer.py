"""Tests for the while-language lexer."""

import pytest

from repro.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import EOF, IDENT, KEYWORD, PUNCT


def _kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)]


class TestTokenize:
    def test_empty_source(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_keywords_recognized(self):
        kinds = _kinds("class method loop while if else new null")
        assert all(kind == KEYWORD for kind, _ in kinds[:-1])

    def test_identifiers(self):
        tokens = tokenize("foo bar_baz $tmp")
        assert [t.value for t in tokens[:-1]] == ["foo", "bar_baz", "$tmp"]
        assert all(t.kind == IDENT for t in tokens[:-1])

    def test_generated_labels_lex_as_one_token(self):
        # Labels like Main:main/Order survive print/parse round trips.
        tokens = tokenize("Main:main/Order_2")
        assert tokens[0].value == "Main:main/Order_2"
        assert tokens[0].kind == IDENT

    def test_array_marker_single_token(self):
        tokens = tokenize("new C[]")
        values = [t.value for t in tokens[:-1]]
        assert "[]" in values

    def test_punctuation(self):
        values = [t.value for t in tokenize("{ } ( ) ; , = . @ *")[:-1]]
        assert values == ["{", "}", "(", ")", ";", ",", "=", ".", "@", "*"]
        assert all(t.kind == PUNCT for t in tokenize("{ } ;")[:-1])

    def test_comments_skipped(self):
        tokens = tokenize("x // a comment with = and ;\ny")
        assert [t.value for t in tokens[:-1]] == ["x", "y"]

    def test_eof_position(self):
        eof = tokenize("a\n")[-1]
        assert (eof.line, eof.column) == (2, 1)
        assert tokenize("ab  ")[-1].column == 5
        # After a trailing comment EOF sits at the comment's '//'.
        eof = tokenize("x\n  y // done")[-1]
        assert (eof.kind, eof.line, eof.column) == (EOF, 2, 5)

    def test_slashes_inside_identifier_are_not_a_comment(self):
        assert [t.value for t in tokenize("a//b")[:-1]] == ["a//b"]

    def test_error_position_after_blanks(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x =\n \t[ y")
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert "unexpected character '['" in str(exc.value)

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x = %")
        assert exc.value.line == 1

    def test_dotted_name_splits(self):
        values = [t.value for t in tokenize("a.b")[:-1]]
        assert values == ["a", ".", "b"]
