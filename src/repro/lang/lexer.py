"""Lexer for the while language.

Identifiers may contain ``/``, ``:``, ``#`` and ``-`` after the first
character so that machine-generated site/callsite labels (which embed method
signatures, e.g. ``Main.main/Order``) survive a print/parse round trip.
"""

import re

from repro.errors import ParseError
from repro.lang.tokens import EOF, IDENT, KEYWORD, KEYWORDS, PUNCT, Token

#: One token of a line with the blanks before it: group 1 the blanks,
#: group 2 an identifier or keyword, group 3 punctuation (``[]``, the
#: array marker, before the single characters), group 4 the ``//`` of a
#: comment, which runs to the end of the line, group 5 any other
#: character.  Group 5 excludes blanks, so trailing blanks match nothing
#: instead of backtracking into an error.
_TOKEN = re.compile(
    r"([ \t\r]*)(?:"
    r"([A-Za-z_$][A-Za-z0-9_$/:#-]*)"
    r"|(\[\]|[{}();,=.@*])"
    r"|(//).*"
    r"|([^ \t\r]))"
)


def tokenize(source):
    """Convert source text into a list of tokens ending with EOF.

    Comments run from ``//`` to end of line.  Lines end at ``\\n``
    only; columns count characters from 1.  The EOF token sits after
    the last line's text, or at the ``//`` of a comment that ends it.
    """
    tokens = []
    append = tokens.append
    for line, text in enumerate(source.split("\n"), 1):
        col = 1
        for blanks, word, punct, comment, other in _TOKEN.findall(text):
            col += len(blanks)
            if word:
                kind = KEYWORD if word in KEYWORDS else IDENT
                append(Token(kind, word, line, col))
                col += len(word)
            elif punct:
                append(Token(PUNCT, punct, line, col))
                col += len(punct)
            elif comment:
                break
            else:
                raise ParseError("unexpected character %r" % other, line, col)
        else:
            col = len(text) + 1
    append(Token(EOF, "", line, col))
    return tokens
