"""Tests for class-hierarchy queries."""

from repro.callgraph.hierarchy import ClassHierarchy
from repro.lang import parse_program

_SOURCE = """
class Base { method m() { return; } method only_base() { return; } }
class Mid extends Base { }
class Sub extends Mid { method m() { return; } }
class Other { method m() { return; } }
"""


def _hierarchy():
    return ClassHierarchy(parse_program(_SOURCE, validate=False))


class TestHierarchy:
    def test_all_targets_by_name(self):
        h = _hierarchy()
        targets = {m.sig for m in h.all_targets("m")}
        assert targets == {"Base.m", "Sub.m", "Other.m"}

    def test_all_targets_missing(self):
        assert _hierarchy().all_targets("ghost") == []

    def test_all_targets_keep_class_order_on_the_corpus(self):
        """The name index answers what a scan of every class in
        ``program.classes`` order answers, so CHA edge lists and arity
        issues keep their order."""
        from repro.bench.apps import build_app, corpus_names

        for app_name in corpus_names():
            program = build_app(app_name).program
            h = ClassHierarchy(program)
            for name in sorted({m.name for m in program.all_methods()}):
                assert h.all_targets(name) == [
                    decl.methods[name]
                    for decl in program.classes.values()
                    if name in decl.methods
                ], (app_name, name)
