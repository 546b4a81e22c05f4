"""Tests for the strong-update (destructive update) extension."""

from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.flows import detect_leaks
from repro.core.regions import RegionSpec
from repro.core.typestate import analyze_loop
from repro.lang import parse_program

_NULLED = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
      h.slot = null;
    }
  }
}
class Holder { field slot; }
class Item { }
"""

_NOT_NULLED = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
    }
  }
}
class Holder { field slot; }
class Item { }
"""

_PARTIAL = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
      h.keep = x;
      h.slot = null;
    }
  }
}
class Holder { field slot; field keep; }
class Item { }
"""


class TestDetectorStrongUpdates:
    def test_default_reports_nulled_slot(self):
        prog = parse_program(_NULLED)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]  # the documented FP

    def test_strong_updates_remove_fp(self):
        prog = parse_program(_NULLED)
        config = DetectorConfig(strong_updates=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_true_leak_untouched(self):
        prog = parse_program(_NOT_NULLED)
        config = DetectorConfig(strong_updates=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]

    def test_only_the_cleared_edge_dropped(self):
        prog = parse_program(_PARTIAL)
        config = DetectorConfig(strong_updates=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]
        assert report.findings[0].redundant_edges == [("holder", "keep")]

    def test_findbugs_fp_elimination(self):
        """The case-study payoff: with the points-to-refined (OTF) call
        graph removing spurious dispatch pairs, strong updates eliminate
        exactly the 5 cleared-map false positives and keep the 4 true
        leaks — the paper's projected future-work precision."""
        from repro.bench.apps import build_app
        from repro.bench.metrics import run_app

        app = build_app("findbugs")
        row, report = run_app(
            app, DetectorConfig(strong_updates=True, callgraph="otf")
        )
        assert row.ls == 4
        assert row.fp == 0
        labels = set(report.leaking_site_labels)
        assert labels == {"method_info", "method_gen", "opcode_cache", "cfg_info"}

    def test_findbugs_strong_updates_need_precise_dispatch(self):
        """With RTA's name-based dispatch, spurious put() targets store
        the descriptors into the identity map too, so the cleared-slot
        filter alone cannot remove the FPs — precision features compose."""
        from repro.bench.apps import build_app
        from repro.bench.metrics import run_app

        app = build_app("findbugs")
        row, _ = run_app(app, DetectorConfig(strong_updates=True))
        assert row.ls == 9


class TestTypestateStrongUpdates:
    def test_default_keeps_heap_contents(self):
        prog = parse_program(_NULLED)
        result = analyze_loop(prog.method("Main.main"), "L")
        assert result.era_of("item") == "T"
        assert detect_leaks(result)

    def test_strong_update_proves_iteration_local(self):
        prog = parse_program(_NULLED)
        result = analyze_loop(
            prog.method("Main.main"), "L", strong_updates=True
        )
        assert result.era_of("item") == "c"
        assert detect_leaks(result) == {}

    def test_strong_update_spares_real_leak(self):
        prog = parse_program(_NOT_NULLED)
        result = analyze_loop(
            prog.method("Main.main"), "L", strong_updates=True
        )
        assert result.era_of("item") == "T"
        assert set(detect_leaks(result)) == {"item"}
