"""Tests for the CHA call-graph builder."""

from repro.callgraph.cha import build_cha
from repro.ir.stmts import InvokeStmt
from repro.lang import parse_program

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    a = new A @sa;
    call a.m() @c1;
    call Main.helper() @c2;
  }
  static method helper() { return; }
}
class A { method m() { return; } }
class B extends A { method m() { return; } }
class Dead { method unreached() { return; } }
"""


def _graph():
    return build_cha(parse_program(_SOURCE))


class TestCHA:
    def test_virtual_call_all_name_targets(self):
        graph = _graph()
        prog = graph.program
        invoke = next(
            s
            for s in prog.method("Main.main").statements()
            if isinstance(s, InvokeStmt) and not s.is_static
        )
        targets = {m.sig for m in graph.targets_of_site(invoke)}
        # CHA over untyped receivers: every same-named method is a target.
        assert targets == {"A.m", "B.m"}

    def test_static_call_single_target(self):
        graph = _graph()
        invoke = next(
            s
            for s in graph.program.method("Main.main").statements()
            if isinstance(s, InvokeStmt) and s.is_static
        )
        assert {m.sig for m in graph.targets_of_site(invoke)} == {"Main.helper"}

    def test_reachable_methods(self):
        graph = _graph()
        sigs = {m.sig for m in graph.reachable_methods()}
        assert "Main.main" in sigs
        assert "Main.helper" in sigs
        assert "A.m" in sigs
        assert "Dead.unreached" not in sigs

    def test_callees_of(self):
        graph = _graph()
        callees = {m.sig for m in graph.callees_of(graph.program.method("Main.main"))}
        assert "Main.helper" in callees

    def test_custom_entries(self):
        graph = build_cha(parse_program(_SOURCE), entries=["A.m"])
        sigs = {m.sig for m in graph.reachable_methods()}
        assert sigs == {"A.m"}
