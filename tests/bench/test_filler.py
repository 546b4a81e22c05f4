"""Tests for the filler code generator."""

from repro.bench.filler import filler_source
from repro.callgraph.rta import build_rta
from repro.lang import parse_program


def _wrap(filler, prefix):
    return parse_program(
        """entry Main.main;
        class Main {
          static method main() {
            seed = new Main @seed;
            fres = call %sFiller0.warmup(seed) @%s_entry;
          }
        }
        %s"""
        % (prefix, prefix, filler)
    )


class TestFiller:
    def test_generated_source_parses(self):
        prog = _wrap(filler_source("T", classes=3, methods_per_class=4), "T")
        assert "TFiller0" in prog.classes
        assert "TFiller2" in prog.classes

    def test_all_filler_methods_reachable(self):
        prog = _wrap(filler_source("T", classes=3, methods_per_class=4), "T")
        graph = build_rta(prog)
        sigs = {m.sig for m in graph.reachable_methods()}
        for c in range(3):
            for m in range(4):
                assert "TFiller%d.m%d" % (c, m) in sigs

    def test_statement_scaling(self):
        small = filler_source("A", classes=2, methods_per_class=3, stmts_per_method=3)
        large = filler_source("B", classes=2, methods_per_class=3, stmts_per_method=12)
        prog_small = _wrap(small, "A")
        prog_large = _wrap(large, "B")
        assert prog_large.statement_count() > prog_small.statement_count()

    def test_filler_allocates_nothing(self):
        source = filler_source("T", classes=2, methods_per_class=3)
        prog = _wrap(source, "T")
        filler_sites = [
            s
            for s in prog.alloc_sites()
            if s.method_sig.startswith("TFiller")
        ]
        assert filler_sites == []

    def test_distinct_prefixes_compose(self):
        combined = (
            filler_source("A", classes=2, methods_per_class=2)
            + "\n"
            + filler_source("B", classes=2, methods_per_class=2)
        )
        prog = parse_program(
            """entry Main.main;
            class Main { static method main() {
              seed = new Main @seed;
              a = call AFiller0.warmup(seed) @ca;
              b = call BFiller0.warmup(seed) @cb;
            } }
            """
            + combined
        )
        assert "AFiller0" in prog.classes and "BFiller0" in prog.classes
