"""Parser and lexer corner cases beyond the core grammar tests."""

import pytest

from repro.errors import IRError, ParseError
from repro.ir.stmts import InvokeStmt, LoopStmt, NewStmt
from repro.lang import parse_program
from repro.lang.parser import parse
from tests.conftest import sequential_source


class TestCornerCases:
    def test_empty_program(self):
        prog = parse_program("")
        assert prog.entry is None
        assert list(prog.all_methods()) == []

    def test_comment_only_program(self):
        prog = parse_program("// nothing to see here")
        assert list(prog.all_methods()) == []

    def test_comment_at_eof_without_newline(self):
        prog = parse_program("class A { } // trailing")
        assert "A" in prog.classes

    def test_multi_dimensional_array(self):
        prog = parse_program(
            "class A { method m() { x = new A[][] @grid; } }"
        )
        site = prog.site("grid")
        assert site.type.dims == 2

    def test_empty_class(self):
        prog = parse_program("class Empty { }")
        assert prog.cls("Empty").methods == {}

    def test_empty_method(self):
        prog = parse_program("class A { method m() { } }")
        assert prog.method("A.m").body.stmts == []

    def test_deeply_nested_blocks(self):
        body = "x = p;"
        for _ in range(20):
            body = "if (*) { %s }" % body
        prog = parse_program("class A { method m(p) { %s } }" % body)
        depth = sum(
            1
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "IfStmt"
        )
        assert depth == 20

    def test_many_parameters(self):
        params = ", ".join("p%d" % i for i in range(12))
        prog = parse_program("class A { method m(%s) { return p11; } }" % params)
        assert len(prog.method("A.m").params) == 12

    def test_call_with_no_args(self):
        prog = parse_program(
            "class A { method f() { return; } method m(p) { call p.f(); } }"
        )
        invoke = next(
            s
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "InvokeStmt"
        )
        assert invoke.args == []

    def test_entry_can_precede_or_follow_classes(self):
        first = parse_program("entry A.m;\nclass A { static method m() { } }")
        second = parse_program("class A { static method m() { } }\nentry A.m;")
        assert first.entry == second.entry == "A.m"

    def test_second_entry_rejected_at_its_token(self):
        # A second declaration used to win silently: the program was
        # analyzed from B.n.
        with pytest.raises(ParseError) as exc:
            parse_program(
                "entry A.m;\n"
                "class A { static method m() { } }\n"
                "class B { static method n() { } }\n"
                "  entry B.n;"
            )
        assert (exc.value.line, exc.value.column) == (4, 3)
        assert str(exc.value) == (
            "line 4, column 3: second entry declaration; "
            "the first is 'entry A.m;' on line 1"
        )

    def test_repeated_identical_entry_rejected(self):
        with pytest.raises(ParseError, match="second entry declaration"):
            parse("entry A.m; entry A.m; class A { }")

    def test_duplicate_class_rejected(self):
        with pytest.raises(Exception):
            parse_program("class A { }\nclass A { }")

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { class = null; } }")

    def test_missing_close_brace(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { x = null; }")

    def test_two_statements_one_line(self):
        prog = parse_program("class A { method m(p) { x = p; y = x; } }")
        assert prog.statement_count() == 2

    def test_site_label_with_rich_characters(self):
        prog = parse_program(
            "class A { method m() { x = new A @lib/A:m#0-1; } }"
        )
        assert prog.site("lib/A:m#0-1")

    def test_field_named_like_method(self):
        prog = parse_program(
            "class A { field m; method m() { x = this.m; return x; } }"
        )
        assert "m" in prog.cls("A").fields
        assert "m" in prog.cls("A").methods

    def test_else_if_chain(self):
        prog = parse_program(
            """class A { method m(p) {
              if (*) { a = p; } else { if (*) { b = p; } else { c = p; } }
            } }"""
        )
        ifs = [
            s
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "IfStmt"
        ]
        assert len(ifs) == 2


class TestWholeTextDecisions:
    """What the parser can only settle once the whole text has parsed:
    which error wins, and which calls are static."""

    @pytest.mark.parametrize(
        "duplicate",
        [
            "class A { } class A { }",
            "class A { field f; field f; }",
            "class A { method m() { x = new A @s; y = new A @s; } }",
        ],
    )
    def test_syntax_error_after_a_duplicate_wins(self, duplicate):
        with pytest.raises(ParseError) as exc:
            parse_program(duplicate + "\nclass B { method m() { x = } }")
        assert (exc.value.line, exc.value.column) == (2, 28)

    def test_later_duplicate_class_wins_over_earlier_duplicate_site(self):
        with pytest.raises(IRError, match="^duplicate class B$"):
            parse_program(
                "class A { method m() { x = new A @s; y = new A @s; } }\n"
                "class B { } class B { }",
                validate=False,
            )

    def test_static_call_to_a_class_declared_later(self):
        prog = parse_program(
            "class A { method m() { call B.s(); } }\n"
            "class B { static method s() { } }"
        )
        (invoke,) = [
            s for s in prog.method("A.m").statements() if isinstance(s, InvokeStmt)
        ]
        assert invoke.is_static
        assert invoke.static_class == "B"

    def test_nested_unlabelled_loops_are_labelled_outer_first(self):
        prog = parse_program(
            "class A { method m() {"
            " while (*) { while (*) { } while (*) { } } while (*) { } } }"
        )
        labels = [
            s.label for s in prog.method("A.m").statements() if isinstance(s, LoopStmt)
        ]
        assert labels == ["A:m/loop", "A:m/loop_1", "A:m/loop_2", "A:m/loop_3"]

    def test_allocation_and_call_hints_share_one_counter(self):
        # ``call:f`` is an identifier, so it can name a class, and its
        # allocations are numbered with the calls of ``f``.
        prog = parse_program(
            "class call:f { method f() { } method m() {"
            " x = new call:f; call x.f(); y = new call:f; } }",
            validate=False,
        )
        labels = [
            s.site if isinstance(s, NewStmt) else s.callsite
            for s in prog.method("call:f.m").statements()
            if isinstance(s, (NewStmt, InvokeStmt))
        ]
        assert labels == ["call:f:m/call:f", "call:f:m/call:f_1", "call:f:m/call:f_2"]


def _nested_source(depth):
    """A leaky loop wrapping ``depth - 1`` nested ifs: ``depth`` levels."""
    return (
        "entry Main.main;\n"
        "class Main { static method main() {\n"
        "h = new Holder @holder;\n"
        "loop L (*) {\n"
        + "if (*) {\n" * (depth - 1)
        + "x = new Item @item;\nh.slot = x;\n"
        + "}\n" * depth
        + "} }\n"
        "class Holder { field slot; }\nclass Item { }\n"
    )


class TestNestingLimit:
    def test_program_at_the_limit_scans_in_a_worker_thread(self):
        """The deepest program the parser accepts also survives
        validation and the analysis on a thread's stack — where the
        daemon runs them."""
        import threading

        from repro.core.scan import scan_all_loops
        from repro.lang.parser import MAX_NESTING

        outcome = {}

        def run():
            try:
                program = parse_program(_nested_source(MAX_NESTING))
                outcome["result"] = scan_all_loops(program)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert "error" not in outcome, outcome.get("error")
        (entry,) = outcome["result"].entries
        assert entry[1].leaking_site_labels == ["item"]

    def test_one_level_more_is_a_parse_error_at_the_token(self):
        from repro.lang.parser import MAX_NESTING

        source = _nested_source(MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nested more than") as excinfo:
            parse_program(source)
        # The offending token: the innermost ``if``, on the last line
        # that opens one.
        line = 4 + MAX_NESTING
        assert source.splitlines()[line - 1] == "if (*) {"
        assert (excinfo.value.line, excinfo.value.column) == (line, 1)

    def test_loops_count_toward_the_limit(self):
        from repro.lang.parser import MAX_NESTING

        def loops(depth):
            return (
                "class A { method m() {\n"
                + "".join("loop L%d (*) {\n" % n for n in range(depth))
                + "}\n" * depth
                + "} }\n"
            )

        parse(loops(MAX_NESTING))
        with pytest.raises(ParseError):
            parse(loops(MAX_NESTING + 1))


class TestMethodLength:
    """Nesting is capped, length is not: validation's CFG walk keeps its
    own stack, so a long method of sequential statements validates."""

    def test_two_thousand_sequential_ifs(self):
        program = parse_program(sequential_source(ifs=2000))
        assert program.statement_count() == 1 + 2000

    def test_two_thousand_sequential_loops(self):
        program = parse_program(sequential_source(loops=2000))
        loops = [
            s for s in program.method("Main.main").statements()
            if isinstance(s, LoopStmt)
        ]
        assert [loop.label for loop in loops[:2]] == ["L0", "L1"]
        assert len(loops) == 2000
