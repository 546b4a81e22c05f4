"""Differential fuzz of the frontend against its three oracles.

* The token texts of :func:`repro.lang.lexer.tokenize` (one compiled
  pattern over the whole text), with their kinds and the lines and
  columns of :func:`repro.lang.lexer.positions`, must give the
  ``(kind, value, line, column)`` list of the per-character lexer in
  :mod:`tests.lang.lexer_oracle`, or raise the same ``ParseError`` text
  at the same line and column.
* :func:`repro.lang.parser.parse` (one pass, building the IR) must give
  the program that :mod:`tests.lang.ast_oracle` parses to an AST and
  then lowers: the same printed IR, classes, fields and methods in the
  same order, the same entry, statements with the same type, uid, repr,
  method and static-ness, the same site index order; or raise the same
  error class and text, at the same line and column.
* :func:`repro.lang.parse_program` returns a ``Program`` or raises a
  typed :class:`~repro.errors.ReproError`, never an untyped exception.
* The def/use issues :func:`repro.ir.validate.validate_program`
  reports, order included, are those of the CFG fixpoint in
  :mod:`tests.ir.definite_assignment_oracle`.

Inputs are arbitrary text, the 13 corpus apps, their ×10 tilings, the
stress program, memocache ×24, the random programs of
:mod:`tests.properties.strategies`, and mutants of all of these: lines
or statements deleted or swapped, ``return``, ``if`` and loops inserted,
single characters inserted, deleted or replaced.  The def/use check
also runs on methods of nested ``if``s, loops and ``return``s
(:func:`~tests.properties.strategies.control_flow_methods`).
"""

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.errors import ParseError, ReproError
from repro.ir.printer import program_to_text
from repro.ir.program import Program
from repro.ir.stmts import InvokeStmt
from repro.ir.validate import validate_program
from repro.lang import parse_program
from repro.lang.lexer import KEYWORDS, NOT_IDENTIFIERS, positions, tokenize
from repro.lang.parser import parse

from tests.ir.definite_assignment_oracle import program_issues
from tests.lang import ast_oracle, lexer_oracle
from tests.properties.strategies import (
    control_flow_methods,
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


def _kind(text):
    if not text:
        return lexer_oracle.EOF
    if text in KEYWORDS:
        return lexer_oracle.KEYWORD
    if text in NOT_IDENTIFIERS:
        return lexer_oracle.PUNCT
    return lexer_oracle.IDENT


def _tokens(source):
    """The token tuples of ``source``, rebuilt from its texts and their
    positions, or its ``ParseError``."""
    try:
        texts = tokenize(source)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)
    lines_columns = list(positions(source))
    assert len(lines_columns) == len(texts)
    return [
        (_kind(text), text) + line_column
        for text, line_column in zip(texts, lines_columns)
    ]


def _oracle_tokens(source):
    """The per-character lexer's token tuples, or its ``ParseError``."""
    try:
        return [
            (t.kind, t.value, t.line, t.column)
            for t in lexer_oracle.tokenize(source)
        ]
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)


def _assert_same_tokens(source):
    assert _tokens(source) == _oracle_tokens(source)


def _assert_typed(source):
    try:
        program = parse_program(source)
    except ReproError:
        return
    assert isinstance(program, Program)


def _assert_same_def_use(source):
    """Compare the def/use issues of ``source`` when it parses; returns
    them, or ``None`` for a source that does not parse."""
    try:
        program = parse_program(source, validate=False)
    except ReproError:
        return None
    issues = [
        issue
        for issue in validate_program(program)
        if any(marker in issue for marker in _DEF_USE)
    ]
    assert issues == program_issues(program)
    return issues


def _ir(build, source):
    """What ``build`` makes of ``source``: the parts of its program the
    analyses read, or the error it raises."""
    try:
        program = build(source)
    except ReproError as err:
        line, column = getattr(err, "line", None), getattr(err, "column", None)
        return (type(err), str(err), line, column)
    return (
        program_to_text(program),
        program.entry,
        [
            (name, decl.superclass, decl.is_library, list(decl.fields))
            for name, decl in program.classes.items()
        ],
        [
            (
                method.sig,
                method.params,
                method.is_static,
                [
                    (
                        type(stmt),
                        stmt.uid,
                        repr(stmt),
                        stmt.method is method,
                        isinstance(stmt, InvokeStmt) and stmt.is_static,
                    )
                    for stmt in method.statements()
                ],
            )
            for method in program.all_methods()
        ],
        [repr(site) for site in program.alloc_sites()],
    )


def _assert_same_ir(source):
    assert _ir(parse, source) == _ir(ast_oracle.build, source)


#: Every simple statement form, one blank between tokens, for the
#: sweep below.
_FORMS = (
    "class A { field f ; method m ( a ) { x = new A ; y = new A [] [] @ s ; "
    "x . f = y ; x . f = null ; y = x . f ; z = y ; w = null ; "
    "r = call x . m ( y ) @ c ; call A . h ( ) ; return x ; return ; } "
    "static method h ( ) { } }"
)
_FILLERS = ("", "x", "=", ".", ";", "null", "new", "call", "return", "}", "[]", "@")


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
    @example("ab \t\n// c\n  // d // e")
    @example("a %\nb # %")
    def test_arbitrary_text(self, text):
        _assert_same_tokens(text)

    @given(_corpus_mutants)
    def test_corpus_mutants(self, source):
        _assert_same_tokens(source)


class TestParserOracle:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_app(self, name):
        _assert_same_ir(_CORPUS[name])

    @pytest.mark.parametrize("name", retention_names())
    def test_retention_tiling_x10(self, name):
        _assert_same_ir(build_scaled(name, factor=10).source)

    def test_stress_program(self):
        _assert_same_ir(stress_source())

    def test_memocache_x24(self):
        _assert_same_ir(build_scaled("memocache", factor=24).source)

    @given(_texts)
    @example("")
    @example("class A { method m() { x = new A @s; y = new A @s; } }")
    @example("class A { } class A { } class B { method m() { x = } }")
    @example("class A { field f; } class B { field g; field g; } class B { }")
    @example("class A { method m() { } method m() { x = new A; } }")
    @example("class A { method m() { call B.s(); call Object.s(); } } class B { }")
    @example("class A { method m() { while (*) { while (*) { } } while { } } }")
    @example("class call:f { method m() { x = new call:f; call x.f(); } }")
    def test_arbitrary_text(self, text):
        _assert_same_ir(text)

    @given(_corpus_mutants)
    def test_corpus_mutants(self, source):
        _assert_same_ir(source)

    @given(_program_mutants)
    def test_random_program_mutants(self, source):
        _assert_same_ir(source)

    def test_every_cut_and_token_edit_of_each_statement_form(self):
        # The parser reads a simple statement by offset from its first
        # token: ending the text, or putting another token, at each
        # offset must stop it where the oracle stops, with its message.
        words = _FORMS.split()
        for k in range(len(words) + 1):
            _assert_same_ir(" ".join(words[:k]))
            for filler in _FILLERS:
                _assert_same_ir(" ".join(words[:k] + [filler] + words[k + 1:]))
                _assert_same_ir(" ".join(words[:k] + [filler] + words[k:]))


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

    @given(control_flow_methods())
    @example(
        "class A { field f; method m(p) { return; if (*) { a = t; "
        "if (*) { b = a; } else { c = b; } return c; } else { a = c; } "
        "loop L (nonnull a) { if (null b) { return; } else { } } } }"
    )
    def test_nested_control_flow(self, source):
        _assert_same_def_use(source)
