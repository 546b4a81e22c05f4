"""Tests for the while-language parser: source text to IR."""

import pytest

from repro.errors import IRError, ParseError
from repro.ir.stmts import (
    Cond,
    CopyStmt,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    NullStmt,
    ReturnStmt,
    StoreNullStmt,
    StoreStmt,
)
from repro.lang import parse_program
from repro.lang.parser import parse


def _method(source, sig="A.m"):
    return parse(source).method(sig)


def _first_stmt(body_source):
    source = "class A { method m2(p, q) { } method m(p) { %s } }" % body_source
    return _method(source).body.stmts[0]


def _all(method, stmt_type):
    return [s for s in method.statements() if isinstance(s, stmt_type)]


class TestDeclarations:
    def test_entry(self):
        prog = parse("entry Main.main;\nclass Main { }")
        assert prog.entry == "Main.main"

    def test_class_with_extends(self):
        prog = parse("class A { }\nclass B extends A { }")
        assert prog.cls("B").superclass == "A"
        assert prog.cls("A").superclass == "Object"

    def test_library_class(self):
        prog = parse("library class L { }")
        assert prog.cls("L").is_library

    def test_fields(self):
        prog = parse("class A { field f; field g; }")
        assert list(prog.cls("A").fields) == ["f", "g"]

    def test_static_method(self):
        assert _method("class A { static method m() { } }").is_static

    def test_params(self):
        method = _method("class A { method m(a, b, c) { } }")
        assert method.params == ["a", "b", "c"]


class TestStatements:
    def test_new_with_site(self):
        stmt = _first_stmt("x = new C @site1;")
        assert isinstance(stmt, NewStmt)
        assert stmt.site == "site1"
        assert stmt.type.dims == 0

    def test_new_array(self):
        stmt = _first_stmt("x = new C[];")
        assert stmt.type.dims == 1

    def test_new_without_site(self):
        assert _first_stmt("x = new C;").site == "A:m/C"

    def test_copy(self):
        stmt = _first_stmt("x = p;")
        assert isinstance(stmt, CopyStmt)
        assert (stmt.target, stmt.source) == ("x", "p")

    def test_null_assign(self):
        assert isinstance(_first_stmt("x = null;"), NullStmt)

    def test_load(self):
        stmt = _first_stmt("x = p.f;")
        assert isinstance(stmt, LoadStmt)
        assert (stmt.target, stmt.base, stmt.field) == ("x", "p", "f")

    def test_store(self):
        stmt = _first_stmt("p.f = p;")
        assert isinstance(stmt, StoreStmt)
        assert (stmt.base, stmt.field, stmt.source) == ("p", "f", "p")

    def test_store_null(self):
        stmt = _first_stmt("p.f = null;")
        assert isinstance(stmt, StoreNullStmt)
        assert (stmt.base, stmt.field) == ("p", "f")

    def test_call_with_target(self):
        stmt = _first_stmt("x = call p.m2(p) @cs;")
        assert isinstance(stmt, InvokeStmt)
        assert stmt.target == "x"
        assert stmt.callsite == "cs"

    def test_call_without_target(self):
        stmt = _first_stmt("call p.m2(p, p);")
        assert stmt.target is None
        assert stmt.args == ["p", "p"]

    def test_return_value(self):
        stmt = _first_stmt("return p;")
        assert isinstance(stmt, ReturnStmt)
        assert stmt.value == "p"

    def test_return_void(self):
        assert _first_stmt("return;").value is None

    def test_static_call_recognized_by_class_name(self):
        invoke = _first_stmt("call A.m2(p, p);")
        assert invoke.is_static
        assert (invoke.static_class, invoke.base) == ("A", None)

    def test_virtual_call_on_variable(self):
        invoke = _first_stmt("call p.m2(p, p);")
        assert not invoke.is_static
        assert (invoke.base, invoke.static_class) == ("p", None)


class TestControlFlow:
    def test_if_else(self):
        stmt = _first_stmt("if (*) { x = p; } else { x = null; }")
        assert isinstance(stmt, IfStmt)
        assert stmt.cond.kind == Cond.NONDET
        assert [type(s) for s in stmt.then_block.stmts] == [CopyStmt]
        assert [type(s) for s in stmt.else_block.stmts] == [NullStmt]

    def test_if_without_else(self):
        stmt = _first_stmt("if (nonnull p) { x = p; }")
        assert (stmt.cond.kind, stmt.cond.var) == ("nonnull", "p")
        assert stmt.else_block.stmts == []

    def test_null_condition(self):
        assert _first_stmt("if (null p) { }").cond.kind == "null"

    def test_labelled_loop(self):
        stmt = _first_stmt("loop L1 (*) { x = p; }")
        assert isinstance(stmt, LoopStmt)
        assert stmt.label == "L1"
        assert [type(s) for s in stmt.body.stmts] == [CopyStmt]

    def test_while_is_unlabelled_loop(self):
        stmt = _first_stmt("while (*) { }")
        assert isinstance(stmt, LoopStmt)
        assert stmt.label == "A:m/loop"

    def test_loop_condition_optional(self):
        assert _first_stmt("loop L { }").cond.kind == "*"


class TestGeneratedLabels:
    def test_fresh_site_labels(self):
        m = _method("class A { method m() { x = new A; y = new A; } }")
        assert [s.site for s in _all(m, NewStmt)] == ["A:m/A", "A:m/A_1"]

    def test_fresh_callsite_labels(self):
        m = _method(
            "class A { method f() { } method m(p) { call p.f(); call p.f(); } }"
        )
        sites = [s.callsite for s in _all(m, InvokeStmt)]
        assert sites == ["A:m/call:f", "A:m/call:f_1"]

    def test_unlabelled_loop_gets_fresh_label(self):
        m = _method("class A { method m() { while (*) { } while (*) { } } }")
        labels = [s.label for s in _all(m, LoopStmt)]
        assert labels == ["A:m/loop", "A:m/loop_1"]

    def test_explicit_labels_take_no_number(self):
        m = _method("class A { method m() { x = new A @mine; y = new A; } }")
        assert [s.site for s in _all(m, NewStmt)] == ["mine", "A:m/A"]

    def test_numbering_restarts_per_method(self):
        prog = parse(
            "class A { method m() { x = new A; } method n() { x = new A; } }"
        )
        assert [s.label for s in prog.alloc_sites()] == ["A:m/A", "A:n/A"]


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { x = y } }")

    def test_bad_condition(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { if (x) { } } }")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("class A {\n  method m() { = }\n}")
        assert (exc.value.line, exc.value.column) == (2, 16)

    def test_garbage_toplevel(self):
        with pytest.raises(ParseError):
            parse("banana")

    def test_loop_needs_label_after_keyword(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { loop { } } }")

    def test_validation_runs_by_default(self):
        source = "class A { method m() { x = ghost; } }"
        assert parse_program(source, validate=False).method("A.m")
        with pytest.raises(IRError):
            parse_program(source)
