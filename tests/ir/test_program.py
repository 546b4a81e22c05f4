"""Tests for repro.ir.program."""

import pytest

from repro.errors import IRError, ResolutionError
from repro.ir.builder import ProgramBuilder
from repro.ir.program import ClassDecl, Method
from repro.ir.stmts import Block


def _tiny_program():
    pb = ProgramBuilder()
    main = pb.cls("Main").static_method("main")
    main.new("x", "Item", site="s1")
    pb.cls("Item")
    return pb.build(entry="Main.main")


class TestClassDecl:
    def test_object_has_no_superclass(self):
        assert ClassDecl("Object").superclass is None

    def test_default_superclass(self):
        assert ClassDecl("A").superclass == "Object"

    def test_duplicate_field(self):
        decl = ClassDecl("A")
        decl.add_field("f")
        with pytest.raises(IRError):
            decl.add_field("f")

    def test_duplicate_method(self):
        decl = ClassDecl("A")
        decl.add_method(Method("m", [], Block(), "A"))
        with pytest.raises(IRError):
            decl.add_method(Method("m", [], Block(), "A"))


class TestProgramLookup:
    def test_method_lookup(self):
        prog = _tiny_program()
        assert prog.method("Main.main").sig == "Main.main"

    def test_unknown_method(self):
        with pytest.raises(ResolutionError):
            _tiny_program().method("Main.nope")

    def test_unknown_class(self):
        with pytest.raises(ResolutionError):
            _tiny_program().cls("Ghost")

    def test_entry_method(self):
        assert _tiny_program().entry_method().name == "main"

    def test_entry_missing(self):
        pb = ProgramBuilder()
        pb.cls("A")
        prog = pb.build()
        with pytest.raises(ResolutionError):
            prog.entry_method()

    def test_duplicate_class(self):
        pb = ProgramBuilder()
        pb.cls("A")
        with pytest.raises(IRError):
            pb.cls("A")


class TestDispatch:
    def _hierarchy(self):
        pb = ProgramBuilder()
        base = pb.cls("Base")
        base.method("m")
        pb.cls("Mid", extends="Base")
        sub = pb.cls("Sub", extends="Mid")
        sub.method("m")
        return pb.build()

    def test_resolve_own_method(self):
        prog = self._hierarchy()
        assert prog.resolve_dispatch("Sub", "m").declaring_class == "Sub"

    def test_resolve_inherited(self):
        prog = self._hierarchy()
        assert prog.resolve_dispatch("Mid", "m").declaring_class == "Base"

    def test_resolve_missing(self):
        with pytest.raises(ResolutionError):
            self._hierarchy().resolve_dispatch("Sub", "nope")

    def test_is_subclass(self):
        prog = self._hierarchy()
        assert prog.is_subclass("Sub", "Base")
        assert prog.is_subclass("Sub", "Sub")
        assert not prog.is_subclass("Base", "Sub")

    def test_subclasses(self):
        prog = self._hierarchy()
        assert set(prog.subclasses("Base")) == {"Base", "Mid", "Sub"}


class TestSites:
    def test_site_registered(self):
        prog = _tiny_program()
        site = prog.site("s1")
        assert site.method_sig == "Main.main"
        assert site.type.class_name == "Item"

    def test_unknown_site(self):
        with pytest.raises(ResolutionError):
            _tiny_program().site("ghost")

    def test_duplicate_site_label_rejected(self):
        pb = ProgramBuilder()
        main = pb.cls("Main").static_method("main")
        main.new("x", "Item", site="dup")
        main.new("y", "Item", site="dup")
        pb.cls("Item")
        with pytest.raises(IRError):
            pb.build()

    def test_statement_count(self):
        assert _tiny_program().statement_count() == 1

    def test_loops_lookup(self, figure1):
        method = figure1.method("Main.main")
        assert method.find_loop("L1").label == "L1"
        with pytest.raises(ResolutionError):
            method.find_loop("L9")

    def test_loop_lookup_follows_body_rewrites(self, figure1):
        from repro.ir.optimize import optimize_program
        from repro.ir.stmts import LoopStmt

        method = figure1.method("Main.main")
        before = method.find_loop("L1")
        optimize_program(figure1)
        assert method.find_loop("L1") is before
        assert any(s is before for s in method.statements())
        # A replaced body, and a loop added after the first lookup.
        method.body = Block([LoopStmt("L1", Block()), LoopStmt("L2", Block())])
        assert method.find_loop("L1") is method.body.stmts[0]
        method.body.stmts.append(LoopStmt("L3", Block()))
        assert method.find_loop("L3") is method.body.stmts[2]

    def test_is_library_method(self, figure1):
        assert not figure1.is_library_method(figure1.method("Main.main"))
