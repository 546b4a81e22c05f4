"""Differential fuzz of the frontend against its two oracles.

* :func:`repro.lang.lexer.tokenize` (one compiled pattern per line) must
  give the ``(kind, value, line, column)`` list of the per-character
  lexer in :mod:`tests.lang.lexer_oracle`, or raise the same
  ``ParseError`` text at the same line and column.
* :func:`repro.lang.parse_program` returns a ``Program`` or raises a
  typed :class:`~repro.errors.ReproError`, never an untyped exception.
* The def/use issues :func:`repro.ir.validate.validate_program`
  reports, order included, are those of the CFG fixpoint in
  :mod:`tests.ir.definite_assignment_oracle`.

Inputs are arbitrary text, the 13 corpus apps, their ×10 tilings, the
stress program, memocache ×24, the random programs of
:mod:`tests.properties.strategies`, and mutants of all of these: lines
or statements deleted or swapped, ``return``, ``if`` and loops inserted,
single characters inserted, deleted or replaced.
"""

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.errors import ParseError, ReproError
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.lang import parse_program
from repro.lang.lexer import tokenize
from repro.lang.lowering import lower
from repro.lang.parser import parse

from tests.ir.definite_assignment_oracle import program_issues
from tests.lang.lexer_oracle import tokenize as oracle_tokenize
from tests.properties.strategies import (
    dispatch_programs,
    inference_programs,
    rich_loop_programs,
)

_CORPUS = {name: build_app(name).source for name in corpus_names()}

#: Text the language gives a meaning to, blanks, and characters it
#: rejects (a lone ``[``, ``%``, a form feed, a non-ASCII letter).
_LEXICON = list("abxyzAZ_$09/:#-{}()[];,=.@* \t\r\n%\f") + [
    "é",
    "//",
    "[]",
    "new",
    "class",
    "loop",
]

#: A mutation unit: one line, or one statement of a line holding several.
_UNIT = re.compile(r"(?<=[;\n])")

#: Inserted statements, and the openers a wrapping edit puts before a
#: run of units (with a ``}`` after it).
_STATEMENTS = (
    "return;",
    "return x;",
    "x = null;",
    "y = x;",
    "x.f = y;",
    "x = new Ghost @mut;",
    "call x.m(y) @mutc;",
)
_OPENERS = ("if (*) {", "if (nonnull x) {", "loop Mut (*) {", "while (null y) {")
#: Inserted text that breaks the syntax, or the one-entry rule.
_NOISE = ("}", "{", "entry Main.main;", "// comment")

#: Edits that keep most mutants parseable, and those that mostly do not.
_STATEMENT_EDITS = ("delete", "swap", "insert", "wrap")
_ALL_EDITS = _STATEMENT_EDITS + ("noise", "char")

#: The def/use issue texts, the only ones naming a statement.
_DEF_USE = (
    " used but never defined (stmt ",
    " may be unassigned on some path (stmt ",
)


def _tokens(lex, source):
    """The token tuples of ``source``, or its ``ParseError``."""
    try:
        return [(t.kind, t.value, t.line, t.column) for t in lex(source)]
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)


def _assert_same_tokens(source):
    assert _tokens(tokenize, source) == _tokens(oracle_tokenize, source)


def _assert_typed(source):
    try:
        program = parse_program(source)
    except ReproError:
        return
    assert isinstance(program, Program)


def _assert_same_def_use(source):
    """Compare the def/use issues of ``source`` when it parses; returns
    them, or ``None`` for a source that does not parse or lower."""
    try:
        program = lower(parse(source))
    except ReproError:
        return None
    issues = [
        issue
        for issue in validate_program(program)
        if any(marker in issue for marker in _DEF_USE)
    ]
    assert issues == program_issues(program)
    return issues


def _is_statement(unit):
    return unit.rstrip().endswith(";") and "{" not in unit and "}" not in unit


def _balanced(units):
    depth = 0
    for unit in units:
        for char in unit:
            depth += {"{": 1, "}": -1}.get(char, 0)
            if depth < 0:
                return False
    return depth == 0


@st.composite
def mutants(draw, sources, edits=_ALL_EDITS):
    """``sources`` (a strategy of source texts) with one to three
    ``edits``.  A statement edit deletes, swaps or precedes a simple
    statement, or wraps a brace-balanced run of lines and statements."""
    source = draw(sources)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        units = _UNIT.split(source)
        edit = draw(st.sampled_from(edits))
        statements = [k for k, unit in enumerate(units) if _is_statement(unit)]
        if edit in _STATEMENT_EDITS and statements:
            pick = st.sampled_from(statements)
            i, j = sorted((draw(pick), draw(pick)))
        else:
            i = draw(st.integers(min_value=0, max_value=len(units) - 1))
            j = i
        if edit == "delete":
            del units[i]
        elif edit == "swap":
            units[i], units[j] = units[j], units[i]
        elif edit == "insert":
            units.insert(i, " %s " % draw(st.sampled_from(_STATEMENTS)))
        elif edit == "wrap":
            if not _balanced(units[i:j + 1]):
                j = i
            units.insert(j + 1, " } ")
            units.insert(i, " %s " % draw(st.sampled_from(_OPENERS)))
        elif edit == "noise":
            units.insert(i, " %s " % draw(st.sampled_from(_NOISE)))
        else:
            unit = units[i]
            k = draw(st.integers(min_value=0, max_value=len(unit)))
            drop = draw(st.integers(min_value=0, max_value=1))
            char = draw(st.sampled_from([""] + _LEXICON))
            units[i] = unit[:k] + char + unit[k + drop:]
        source = "".join(units)
    return source


_texts = st.lists(st.sampled_from(_LEXICON) | st.characters(), max_size=60).map(
    "".join
)
_corpus = st.sampled_from(corpus_names()).map(_CORPUS.__getitem__)
_corpus_mutants = mutants(_corpus)
_random_programs = st.one_of(
    rich_loop_programs(), inference_programs(), dispatch_programs()
)
_program_mutants = mutants(_random_programs)


class TestLexerOracle:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_app(self, name):
        _assert_same_tokens(_CORPUS[name])

    @given(_texts)
    @example("")
    @example("x // trailing comment")
    @example("a  \n  b\t\r")
    @example("x//y /z")
    @example("new C[] [ ]")
    def test_arbitrary_text(self, text):
        _assert_same_tokens(text)

    @given(_corpus_mutants)
    def test_corpus_mutants(self, source):
        _assert_same_tokens(source)


class TestTypedErrors:
    @given(_texts)
    def test_arbitrary_text(self, text):
        _assert_typed(text)

    @given(_corpus_mutants)
    def test_corpus_mutants(self, source):
        _assert_typed(source)

    @given(_program_mutants)
    def test_random_program_mutants(self, source):
        _assert_typed(source)


class TestDefiniteAssignmentOracle:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_app(self, name):
        assert _assert_same_def_use(_CORPUS[name]) == []

    @pytest.mark.parametrize("name", retention_names())
    def test_retention_tiling_x10(self, name):
        assert _assert_same_def_use(build_scaled(name, factor=10).source) == []

    def test_stress_program(self):
        assert _assert_same_def_use(stress_source()) == []

    def test_memocache_x24(self):
        source = build_scaled("memocache", factor=24).source
        assert _assert_same_def_use(source) == []

    @given(_random_programs)
    def test_random_programs(self, source):
        assert _assert_same_def_use(source) == []

    @given(mutants(_corpus, _STATEMENT_EDITS))
    @example(
        "class A { method m() { if (*) { x = null; } else { } "
        "loop L (nonnull x) { y = x; x = y; return; z = q; } y = x; } }"
    )
    def test_corpus_mutants(self, source):
        _assert_same_def_use(source)

    @given(mutants(_random_programs, _STATEMENT_EDITS))
    def test_random_program_mutants(self, source):
        _assert_same_def_use(source)
