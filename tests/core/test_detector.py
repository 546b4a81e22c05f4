"""Tests for the interprocedural leak detector."""

import pytest

from repro.core.api import analyze
from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.era import FUT, TOP
from repro.core.regions import RegionSpec
from repro.errors import AnalysisError
from repro.lang import parse_program
from tests.conftest import SIMPLE_LEAK_SOURCE, SIMPLE_SHARED_SOURCE


def _check(source, region, config=None):
    return analyze(parse_program(source), region, config=config)


class TestBasicDetection:
    def test_simple_leak_reported(self):
        report = _check(SIMPLE_LEAK_SOURCE, RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]
        finding = report.findings[0]
        assert finding.era == TOP
        assert ("holder", "slot") in finding.redundant_edges

    def test_shared_object_not_reported(self):
        report = _check(SIMPLE_SHARED_SOURCE, RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_iteration_local_not_reported(self):
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              loop L (*) { x = new Item @local; y = x; }
            } }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.findings == []
        assert report.stats["loop_alloc_sites"] == 1

    def test_figure1_order_leak(self, figure1):
        report = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        assert report.leaking_site_labels == ["a5"]
        finding = report.findings[0]
        assert finding.era == FUT  # flows back via curr
        assert ("a34", "elem") in finding.redundant_edges
        assert ("a2", "curr") not in finding.redundant_edges

    def test_partial_retrieval_unmatched_edge(self):
        """Stored into two outside objects, read back from only one: the
        unmatched edge is reported."""
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h1 = new Holder @h1;
              h2 = new Holder @h2;
              loop L (*) {
                prev = h1.slot;
                x = new Item @item;
                h1.slot = x;
                h2.slot = x;
              }
            } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.leaking_site_labels == ["item"]
        assert report.findings[0].redundant_edges == [("h2", "slot")]

    def test_destructive_update_false_positive(self):
        """x.f = null is invisible (no strong updates): the detector
        reports the site even though it never accumulates — the paper's
        documented FP source."""
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) {
                x = new Item @item;
                h.slot = x;
                h.slot = null;
              }
            } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.leaking_site_labels == ["item"]


class TestInterprocedural:
    def test_escape_through_callee(self):
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) {
                x = new Item @item;
                call Main.save(h, x) @cs;
              }
            }
            static method save(a, b) { a.slot = b; } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.leaking_site_labels == ["item"]

    def test_allocation_in_callee_gets_context(self):
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) {
                call Main.mk(h) @outer_cs;
              }
            }
            static method mk(a) { x = new Item @item; a.slot = x; } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.leaking_site_labels == ["item"]
        ctx = report.findings[0].creation_contexts
        assert [c.sites for c in ctx] == [("outer_cs",)]

    def test_multiple_contexts_counted(self):
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) {
                call Main.mk(h) @cs1;
                call Main.mk(h) @cs2;
              }
            }
            static method mk(a) { x = new Item @item; a.slot = x; } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.findings[0].context_count == 2
        assert report.context_sensitive_count == 2

    def test_context_depth_limits_enumeration(self):
        source = """entry Main.main;
        class Main { static method main() {
          h = new Holder @holder;
          loop L (*) { call Main.a(h) @c1; }
        }
        static method a(x) { call Main.b(x) @c2; }
        static method b(x) { i = new Item @item; x.slot = i; } }
        class Holder { field slot; }
        class Item { }"""
        deep = _check(source, RegionSpec("Main.main", "L"))
        shallow = _check(
            source,
            RegionSpec("Main.main", "L"),
            DetectorConfig(context_depth=1),
        )
        assert deep.leaking_site_labels == ["item"]
        # with k=1 the allocation two calls deep is outside the horizon
        assert shallow.leaking_site_labels == []

    def test_recursion_handled(self):
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) { call Main.rec(h) @c1; }
            }
            static method rec(x) {
              i = new Item @item;
              x.slot = i;
              if (*) { call Main.rec(x) @c2; }
            } }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Main.main", "L"),
        )
        assert report.leaking_site_labels == ["item"]

    def test_region_spec_artificial_loop(self):
        """No loop at all: the entry method body is the iteration."""
        report = _check(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              p = new Plugin @plugin;
              p.holder = h;
              call p.entryPoint() @c;
            } }
            class Plugin {
              field holder;
              method entryPoint() {
                x = new Item @item;
                h = this.holder;
                h.slot = x;
              }
            }
            class Holder { field slot; }
            class Item { }""",
            RegionSpec("Plugin.entryPoint"),
        )
        assert report.leaking_site_labels == ["item"]


class TestConfig:
    def test_pivot_suppresses_contained_leak(self):
        source = """entry Main.main;
        class Main { static method main() {
          h = new Holder @holder;
          loop L (*) {
            n = new Node @node;
            x = new Item @item;
            n.val = x;
            h.slot = n;
          }
        } }
        class Holder { field slot; }
        class Node { field val; }
        class Item { }"""
        with_pivot = _check(source, RegionSpec("Main.main", "L"))
        without = _check(
            source, RegionSpec("Main.main", "L"), DetectorConfig(pivot=False)
        )
        assert with_pivot.leaking_site_labels == ["node"]
        assert set(without.leaking_site_labels) == {"node", "item"}

    def test_cha_and_rta_agree_here(self):
        for kind in ("rta", "cha"):
            report = _check(
                SIMPLE_LEAK_SOURCE,
                RegionSpec("Main.main", "L"),
                DetectorConfig(callgraph=kind),
            )
            assert report.leaking_site_labels == ["item"]

    def test_demand_driven_mode(self):
        report = _check(
            SIMPLE_LEAK_SOURCE,
            RegionSpec("Main.main", "L"),
            DetectorConfig(demand_driven=True),
        )
        assert report.leaking_site_labels == ["item"]

    def test_invalid_callgraph_kind(self):
        with pytest.raises(AnalysisError):
            DetectorConfig(callgraph="magic")

    def test_stats_populated(self):
        report = _check(SIMPLE_LEAK_SOURCE, RegionSpec("Main.main", "L"))
        for key in ("methods", "statements", "time_seconds", "loop_objects"):
            assert key in report.stats

    def test_report_format_mentions_redundant_edge(self):
        report = _check(SIMPLE_LEAK_SOURCE, RegionSpec("Main.main", "L"))
        text = report.format()
        assert "redundant reference: holder.slot" in text
