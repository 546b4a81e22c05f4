"""Character-at-a-time lexer: the differential oracle of the regex one.

It walks the source one character at a time, tracking line and column,
and tries each punctuation token in turn with ``startswith``.
The production lexer is :func:`repro.lang.lexer.tokenize`, which
matches one compiled pattern per line;
``tests/properties/test_frontend_differential.py`` checks that both give
the same tokens, or the same ``ParseError`` text, line and column.
"""

from repro.errors import ParseError
from repro.lang.tokens import EOF, IDENT, KEYWORD, KEYWORDS, PUNCT, Token

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
