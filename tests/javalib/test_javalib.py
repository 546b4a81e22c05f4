"""Tests for the standard-library models."""

import pytest

from repro.javalib import JAVALIB_SOURCE, library_source, with_javalib
from repro.lang import parse_program
from repro.semantics.interp import FixedSchedule, execute


def _full_program(app):
    return parse_program(with_javalib(app))


class TestSources:
    def test_full_library_parses(self):
        prog = parse_program(JAVALIB_SOURCE + "\nclass App { }")
        expected = {
            "HashMap",
            "IdentityHashMap",
            "Hashtable",
            "ArrayList",
            "Stack",
            "Vector",
            "LinkedList",
            "HashSet",
            "StringBuilder",
            "Thread",
        }
        assert expected <= set(prog.classes)

    def test_all_marked_library(self):
        prog = parse_program(JAVALIB_SOURCE + "\nclass App { }")
        for name in ("HashMap", "ArrayList", "Thread", "MapEntry"):
            assert prog.cls(name).is_library
        assert not prog.cls("App").is_library

    def test_subset_selection(self):
        source = library_source("stack")
        prog = parse_program(source)
        assert "Stack" in prog.classes
        assert "HashMap" not in prog.classes

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            library_source("treemap")

    def test_collections_use_distinct_backing_fields(self):
        """Field sensitivity keeps collections apart under merged
        name-based dispatch, so the backing fields must differ."""
        prog = parse_program(JAVALIB_SOURCE + "\nclass App { }")
        fields = set()
        for cls in ("HashMap", "IdentityHashMap", "Hashtable", "ArrayList",
                    "Stack", "Vector", "HashSet", "StringBuilder"):
            decl = prog.cls(cls)
            (field,) = [f for f in decl.fields]
            assert field not in fields, "backing field %r reused" % field
            fields.add(field)


class TestConcreteBehaviour:
    """The models must behave like real collections under the concrete
    interpreter — the same code static analysis sees actually runs."""

    def test_hashmap_put_get(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                m = new HashMap @m;
                call m.hmInit() @i;
                v = new App @val;
                call m.put(v, v) @p;
                got = call m.get(v) @g;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        final_store = trace.stores[-1]
        assert final_store.field == "out"
        assert final_store.source.site == "val"

    def test_stack_push_pop(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                s = new Stack @s;
                call s.stInit() @i;
                v = new App @val;
                call s.push(v) @p;
                got = call s.pop() @g;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        assert trace.stores[-1].source.site == "val"

    def test_hashmap_clear_removes(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                m = new HashMap @m;
                call m.hmInit() @i;
                v = new App @val;
                call m.put(v, v) @p;
                call m.clear() @c;
                got = call m.get(v) @g;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        # after clear, get() returns its fallback (the key), not the value:
        # the only store into `out` is the key object itself, or nothing
        out_stores = [e for e in trace.stores if e.field == "out"]
        assert all(e.source.site != "HashMap:entry" for e in out_stores)

    def test_linkedlist_add_get(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                l = new LinkedList @l;
                v = new App @val;
                call l.addLast(v) @a;
                got = call l.getFirst() @g;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        assert trace.stores[-1].source.site == "val"

    def test_hashset_add_iterate(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                s = new HashSet @s;
                call s.hsInit() @i;
                v = new App @val;
                call s.add(v) @a;
                got = call s.iterate() @it;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        assert trace.stores[-1].source.site == "val"

    def test_stringbuilder_append_tostring(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                sb = new StringBuilder @sb;
                call sb.sbInit() @i;
                v = new App @val;
                same = call sb.append(v) @a;
                got = call same.toString() @t;
                h = new Holder @h;
                h.out = got;
              }
            }
            class Holder { field out; }
            """
        )
        trace = execute(prog)
        assert trace.stores[-1].source.site == "val"

    def test_hashset_membership_probe_not_a_flow_in(self):
        """Objects only added to a HashSet (never iterated) leak; the
        internal membership probe must not mask that."""
        from repro.core.detector import LeakChecker
        from repro.core.regions import RegionSpec

        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                s = new HashSet @s;
                call s.hsInit() @i;
                loop L (*) {
                  v = new Item @item;
                  probe = call s.contains(v) @c;
                  call s.add(v) @a;
                }
              }
            }
            class Item { }
            """
        )
        report = LeakChecker(prog).check(RegionSpec("App.main", "L"))
        assert report.leaking_site_labels == ["item"]

    def test_thread_start_invokes_run(self):
        prog = _full_program(
            """
            entry App.main;
            class App {
              static method main() {
                w = new Worker @w;
                call w.start() @s;
              }
            }
            class Worker extends Thread {
              method run() { x = new App @in_run; }
            }
            """
        )
        trace = execute(prog)
        assert "in_run" in {o.site for o in trace.objects}
