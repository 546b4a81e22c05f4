"""Tests for IR linking and tree shaking."""

import pytest

from repro.errors import IRError
from repro.ir.transform import link_programs, prune_unreachable
from repro.lang import parse_program

_APP = """
entry Main.main;
class Main {
  static method main() {
    u = new Util @util;
    r = call u.help(u) @c;
  }
}
"""

_LIB = """
class Util {
  method help(x) { return x; }
}
"""


class TestLink:
    def test_link_app_and_lib(self):
        app = parse_program(_APP, validate=False)
        lib = parse_program(_LIB)
        linked = link_programs(app, lib)
        assert linked.entry == "Main.main"
        assert linked.method("Util.help")
        assert linked.site("util")

    def test_class_clash_rejected(self):
        a = parse_program("class Dup { }")
        b = parse_program("class Dup { }")
        with pytest.raises(IRError):
            link_programs(a, b)

    def test_site_clash_rejected(self):
        a = parse_program("class A { method m() { x = new A @shared; } }")
        b = parse_program("class B { method m() { x = new B @shared; } }")
        with pytest.raises(IRError):
            link_programs(a, b)

    def test_explicit_entry_override(self):
        app = parse_program(_APP, validate=False)
        lib = parse_program(_LIB)
        linked = link_programs(lib, app, entry="Main.main")
        assert linked.entry == "Main.main"

    def test_linked_program_analyzable(self):
        """Linking at IR level is equivalent to source concatenation."""
        from repro.core import LeakChecker, RegionSpec

        app = parse_program(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) {
                x = new Item @item;
                call Main.save(h, x) @c;
              }
            }
            static method save(a, b) { a.slot = b; } }
            class Item { }""",
            validate=False,
        )
        lib = parse_program("class Holder { field slot; }")
        linked = link_programs(app, lib)
        report = LeakChecker(linked).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]

    def test_empty_link_rejected(self):
        with pytest.raises(IRError):
            link_programs()


class TestPrune:
    _SOURCE = """
    entry Main.main;
    class Main {
      static method main() {
        a = new A @sa;
        call a.used() @c;
      }
    }
    class A {
      method used() { return; }
      method dead() { x = new DeadOnly @dead_site; }
    }
    class DeadOnly { }
    class NeverMentioned { method ghost() { return; } }
    """

    def test_unreachable_methods_dropped(self):
        pruned = prune_unreachable(parse_program(self._SOURCE))
        assert "used" in pruned.cls("A").methods
        assert "dead" not in pruned.cls("A").methods

    def test_unreferenced_classes_dropped(self):
        pruned = prune_unreachable(parse_program(self._SOURCE))
        assert "NeverMentioned" not in pruned.classes
        assert "DeadOnly" not in pruned.classes

    def test_entry_preserved_and_resolvable(self):
        pruned = prune_unreachable(parse_program(self._SOURCE))
        assert pruned.entry_method().sig == "Main.main"

    def test_sites_of_surviving_code_kept(self):
        pruned = prune_unreachable(parse_program(self._SOURCE))
        assert pruned.site("sa")

    def test_superclass_chain_pulled_in(self):
        source = """
        entry Main.main;
        class Base { }
        class Sub extends Base { method m() { return; } }
        class Main {
          static method main() {
            s = new Sub @ss;
            call s.m() @c;
          }
        }
        """
        pruned = prune_unreachable(parse_program(source))
        assert "Base" in pruned.classes

    def test_analysis_unchanged_by_pruning(self, figure1):
        from repro.core import LeakChecker, RegionSpec

        pruned = prune_unreachable(figure1)
        original = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        after = LeakChecker(pruned).check(RegionSpec("Main.main", "L1"))
        assert original.leaking_site_labels == after.leaking_site_labels

    def test_requires_entry(self):
        prog = parse_program("class A { }")
        with pytest.raises(IRError):
            prune_unreachable(prog)
