"""Tests for whole-program loop scanning."""

from repro.bench.apps import build_app
from repro.core.detector import DetectorConfig
from repro.core.scan import scan_all_loops
from repro.lang import parse_program

_TWO_LOOPS = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop LEAKY (*) {
      x = new Item @item;
      h.slot = x;
    }
    loop CLEAN (*) {
      y = new Item @local;
    }
  }
}
class Holder { field slot; }
class Item { }
"""


class TestScan:
    def test_scans_every_loop(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog)
        assert len(result.entries) == 2

    def test_identifies_leaky_loop(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog)
        leaky = result.loops_with_leaks()
        assert [spec.loop_label for spec in leaky] == ["LEAKY"]

    def test_aggregated_sites(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog)
        assert result.leaking_sites() == ["item"]

    def test_ranked_order_visits_suspicious_first(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog, ranked=True)
        assert result.entries[0][0].loop_label == "LEAKY"

    def test_limit(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog, ranked=True, limit=1)
        assert len(result.entries) == 1
        assert result.total_findings() == 1

    def test_reports_carry_kernel_stats(self):
        """Every region check reads the whole-program solve, so each
        report carries the points-to kernel's statistics."""
        model = build_app("memocache")
        result = scan_all_loops(
            model.program, model.config or DetectorConfig()
        )
        assert result.entries
        for _spec, report in result.entries:
            assert report.stats["kernel"]["nodes"] > 0

    def test_config_respected(self):
        prog = parse_program(_TWO_LOOPS)
        result = scan_all_loops(prog, config=DetectorConfig(pivot=False))
        assert result.total_findings() == 1

    def test_format(self):
        prog = parse_program(_TWO_LOOPS)
        text = scan_all_loops(prog).format()
        assert "[LEAKS]" in text
        assert "[clean]" in text
