"""Lexer for the while language.

Identifiers may contain ``/``, ``:``, ``#`` and ``-`` after the first
character so that machine-generated site/callsite labels (which embed method
signatures, e.g. ``Main.main/Order``) survive a print/parse round trip.

A token is its text alone: :func:`tokenize` returns the texts from one
compiled pattern over the whole source.  Only a ``ParseError`` needs a
line and column, so :func:`position` finds them from the token's index
when one is raised.
"""

import re
from itertools import islice

from repro.errors import ParseError

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "library",
        "field",
        "method",
        "static",
        "entry",
        "new",
        "null",
        "call",
        "return",
        "if",
        "else",
        "loop",
        "while",
        "nonnull",
    }
)

_PUNCTUATION = frozenset("{}();,=.@*")

#: Every text :func:`tokenize` returns that is not an identifier: the
#: keywords, the punctuation, the array marker and EOF's empty text.
NOT_IDENTIFIERS = KEYWORDS | _PUNCTUATION | {"[]", ""}

#: The one-character texts that are tokens: punctuation, and the
#: characters an identifier may start with.
_SINGLES = _PUNCTUATION | frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)

#: One token with the blanks, newlines and ``//`` comments before it.
#: The group is an identifier or keyword, the array marker ``[]``, one
#: punctuation character, any other character (an error), or the empty
#: text at the end of the source.  The group matches wherever the
#: greedy skip stops, so the pattern never backtracks and lexing is
#: linear in the text, however long its blank runs.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
    r"([A-Za-z_$][A-Za-z0-9_$/:#-]*|\[\]|[{}();,=.@*]|.|\Z)"
)


def tokenize(source):
    """The token texts of ``source``, ending with ``""`` for EOF.

    Comments run from ``//`` to end of line.  A character that starts
    no token raises a ``ParseError`` at the first one in the text,
    before any parsing.
    """
    texts = _TOKEN.findall(source)
    # Blanks or a comment at the end match once with the empty text,
    # then the empty match at the end follows: one EOF is enough.
    if len(texts) > 1 and texts[-2] == "":
        texts.pop()
    bad = {text for text in set(texts) if len(text) == 1 and text not in _SINGLES}
    if bad:
        # One pass in text order, however many distinct bad characters.
        index = next(i for i, text in enumerate(texts) if text in bad)
        line, column = position(source, index)
        raise ParseError("unexpected character %r" % texts[index], line, column)
    return texts


def positions(source):
    """The 1-based ``(line, column)`` of each token of ``source``, in
    the order :func:`tokenize` returns them, from one scan of the text.

    Lines end at ``\\n`` only; columns count characters.  EOF sits
    after the last line's text, or at the ``//`` of a comment that ends
    the source.
    """
    line, line_start, last = 1, 0, 0
    for match in _TOKEN.finditer(source):
        offset = match.start(1)
        eof = not match.group(1)
        if eof:
            # EOF's match skipped the tail of the source: a comment on
            # its last line starts at the first ``//`` after the last
            # token.
            comment = source.find("//", max(match.start(), source.rfind("\n") + 1))
            if comment >= 0:
                offset = comment
        newlines = source.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", last, offset) + 1
        last = offset
        yield line, offset - line_start + 1
        if eof:
            return


def position(source, index):
    """The ``(line, column)`` of token ``index`` of ``source``: where a
    ``ParseError`` at that token is raised."""
    return next(islice(positions(source), index, None))
