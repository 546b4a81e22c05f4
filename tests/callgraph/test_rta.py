"""Tests for the RTA call-graph builder."""

import pytest

from repro.callgraph.cha import build_cha
from repro.callgraph.rta import build_rta
from repro.errors import ResolutionError
from repro.ir.stmts import InvokeStmt
from repro.lang import parse_program

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    a = new A @sa;
    call a.m() @c1;
  }
}
class A { method m() { return; } }
class B extends A { method m() { return; } }
"""

_LATE_INSTANTIATION = """
entry Main.main;
class Main {
  static method main() {
    a = new A @sa;
    call a.m() @c1;
  }
}
class A {
  method m() {
    b = new B @sb;
    call b.m() @c2;
  }
}
class B { method m() { return; } }
"""


class TestRTA:
    def test_only_instantiated_classes_dispatch(self):
        graph = build_rta(parse_program(_SOURCE))
        prog = graph.program
        invoke = next(
            s for s in prog.method("Main.main").statements() if isinstance(s, InvokeStmt)
        )
        targets = {m.sig for m in graph.targets_of_site(invoke)}
        # B is never instantiated: RTA prunes B.m, unlike CHA.
        assert targets == {"A.m"}

    def test_more_precise_than_cha(self):
        prog_text = _SOURCE
        rta_methods = {
            m.sig for m in build_rta(parse_program(prog_text)).reachable_methods()
        }
        cha_methods = {
            m.sig for m in build_cha(parse_program(prog_text)).reachable_methods()
        }
        assert rta_methods <= cha_methods
        assert "B.m" in cha_methods
        assert "B.m" not in rta_methods

    def test_late_instantiation_fixed_point(self):
        """A class instantiated deep in the program resolves earlier
        pending virtual calls (the RTA fixed point)."""
        graph = build_rta(parse_program(_LATE_INSTANTIATION))
        sigs = {m.sig for m in graph.reachable_methods()}
        assert "B.m" in sigs

    def test_static_calls_always_resolved(self):
        src = """
        entry Main.main;
        class Main {
          static method main() { call Main.helper() @c; }
          static method helper() { return; }
        }
        """
        graph = build_rta(parse_program(src))
        assert "Main.helper" in {m.sig for m in graph.reachable_methods()}

    def test_unreachable_code_excluded(self):
        src = """
        entry Main.main;
        class Main { static method main() { return; } }
        class Dead { method walk() { return; } }
        """
        graph = build_rta(parse_program(src))
        assert {m.sig for m in graph.reachable_methods()} == {"Main.main"}


_NO_ENTRY = _SOURCE.replace("entry Main.main;", "")


class TestProgramWithoutEntry:
    """Validation accepts a program without an ``entry`` declaration;
    the call-graph build is where it stops, with a typed error."""

    @pytest.mark.parametrize("builder", ["rta", "cha", "otf"])
    def test_builder_raises_resolution_error(self, builder):
        from repro.callgraph.otf import build_otf

        build = {"rta": build_rta, "cha": build_cha, "otf": build_otf}[builder]
        with pytest.raises(ResolutionError, match="no entry point"):
            build(parse_program(_NO_ENTRY))

    def test_scan_raises_resolution_error(self):
        from repro.core.scan import scan_all_loops

        program = parse_program(
            _NO_ENTRY.replace("call a.m() @c1;", "loop L (*) { }")
        )
        with pytest.raises(ResolutionError, match="no entry point"):
            scan_all_loops(program)
