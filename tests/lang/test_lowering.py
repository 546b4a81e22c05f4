"""Tests for the IR statements ``parse_program`` builds from source text.

The parser emits IR directly; these check the entry, branch blocks, loads
and null stores through the public entry point rather than ``parser.parse``.
"""

from repro.ir.stmts import CopyStmt, IfStmt, LoadStmt, StoreNullStmt
from repro.lang import parse_program


def _method(source, sig="A.m"):
    return parse_program(source, validate=False).method(sig)


class TestLowering:
    def test_if_blocks_lowered(self):
        m = _method("class A { method m(p) { if (*) { x = p; } else { y = p; } } }")
        stmt = next(s for s in m.statements() if isinstance(s, IfStmt))
        assert isinstance(stmt.then_block.stmts[0], CopyStmt)
        assert isinstance(stmt.else_block.stmts[0], CopyStmt)

    def test_store_null_lowered(self):
        m = _method("class A { field f; method m(p) { p.f = null; } }")
        assert any(isinstance(s, StoreNullStmt) for s in m.statements())

    def test_load_lowered(self):
        m = _method("class A { field f; method m(p) { x = p.f; } }")
        load = next(s for s in m.statements() if isinstance(s, LoadStmt))
        assert load.field == "f"

    def test_entry_set(self, simple_leak):
        assert simple_leak.entry == "Main.main"
