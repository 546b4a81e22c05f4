"""Token kinds for the while-language frontend."""

# Token kinds
IDENT = "IDENT"
KEYWORD = "KEYWORD"
PUNCT = "PUNCT"
EOF = "EOF"

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
