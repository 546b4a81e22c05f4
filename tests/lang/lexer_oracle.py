"""Character-at-a-time lexer: the differential oracle of the regex one.

It walks the source one character at a time, tracking line and column,
and tries each punctuation token in turn with ``startswith``; each token
is a :class:`Token` with its kind and position.
The production lexer is :func:`repro.lang.lexer.tokenize`, which
returns the token texts from one compiled pattern over the whole source,
and :func:`repro.lang.lexer.positions` finds their lines and columns;
``tests/properties/test_frontend_differential.py`` checks that both give
the same tokens, or the same ``ParseError`` text, line and column.
"""

from repro.errors import ParseError
from repro.lang.lexer import KEYWORDS

# Token kinds
IDENT = "IDENT"
KEYWORD = "KEYWORD"
PUNCT = "PUNCT"
EOF = "EOF"


class Token:
    """One lexical token with its 1-based source position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value, self.line, self.column)


PUNCTUATION = (
    "[]",  # array marker; must precede single-char tokens
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    "=",
    ".",
    "@",
    "*",
)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789/:#-")


def tokenize(source):
    """Convert source text into a list of tokens ending with EOF.

    Comments run from ``//`` to end of line.
    """
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            start_col = col
            while i < n and source[i] in _IDENT_CONT:
                i += 1
                col += 1
            word = source[start:i]
            # A bare identifier followed by '.' then another identifier is a
            # qualified name (x.f); the lexer leaves the '.' as punctuation.
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, line, start_col))
            continue
        matched = None
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                matched = punct
                break
        if matched is not None:
            tokens.append(Token(PUNCT, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token(EOF, "", line, col))
    return tokens
