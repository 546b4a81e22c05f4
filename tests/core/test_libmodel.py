"""Tests for the stronger library flows-in condition (Section 4)."""

from repro.callgraph.rta import build_rta
from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.libmodel import is_library_sig, library_visible_values
from repro.core.regions import RegionSpec
from repro.javalib import with_javalib
from repro.lang import parse_program
from repro.pta.pag import PAG

_PUT_ONLY = """
entry Main.main;
class Main {
  static method main() {
    m = new HashMap @map;
    call m.hmInit() @mi;
    loop L (*) {
      x = new Item @item;
      call m.put(x, x) @do_put;
    }
  }
}
class Item { }
"""

_PUT_AND_GET = """
entry Main.main;
class Main {
  static method main() {
    m = new HashMap @map;
    call m.hmInit() @mi;
    loop L (*) {
      y = call m.get(m) @do_get;
      x = new Item @item;
      call m.put(x, x) @do_put;
    }
  }
}
class Item { }
"""


def _program(app):
    return parse_program(with_javalib(app, "hashmap"))


def _load_targets(pag):
    """``(method_sig, name)`` of every load's target, in load order."""
    return [pag.var_table[vid] for vid in pag.load_target]


def _counts_as_flow_in(program, target, visible):
    """The Section 4 condition on a load, as the flows-in stage applies
    it: a load in application code always counts; one in library code
    counts only when its target can reach application code."""
    return not is_library_sig(program, target[0]) or target in visible


class TestVisibility:
    def test_is_library_sig(self):
        prog = _program(_PUT_ONLY)
        assert is_library_sig(prog, "HashMap.put")
        assert not is_library_sig(prog, "Main.main")

    def test_put_probe_not_visible(self):
        """HashMap.put's internal entry probe is never returned: its load
        target must not be application-visible."""
        prog = _program(_PUT_ONLY)
        pag = PAG(prog, build_rta(prog))
        visible = library_visible_values(prog, pag)
        probe_loads = [t for t in _load_targets(pag) if t[1] == "probe"]
        assert probe_loads
        for target in probe_loads:
            assert target not in visible
            assert not _counts_as_flow_in(prog, target, visible)

    def test_get_value_visible(self):
        """HashMap.get returns what it loads: the load counts."""
        prog = _program(_PUT_AND_GET)
        pag = PAG(prog, build_rta(prog))
        visible = library_visible_values(prog, pag)
        value_loads = [
            t for t in _load_targets(pag) if t == ("HashMap.get", "v")
        ]
        assert value_loads
        for target in value_loads:
            assert _counts_as_flow_in(prog, target, visible)

    def test_application_loads_always_count(self):
        prog = _program(_PUT_ONLY)
        pag = PAG(prog, build_rta(prog))
        visible = library_visible_values(prog, pag)
        app_loads = [
            t for t in _load_targets(pag) if not is_library_sig(prog, t[0])
        ]
        for target in app_loads:
            # Application variables seed the visible set.
            assert target in visible
            assert _counts_as_flow_in(prog, target, visible)


_RETURN_CHAIN = """
entry Main.main;
class Main {
  static method main() {
    b = new Box @box;
    loop L (*) {
      x = new Item @item;
      call b.stash(x) @do_stash;
      y = call b.fetchOuter() @do_fetch;
    }
  }
}
library class Box {
  field slot;
  method stash(v) {
    this.slot = v;
    return;
  }
  method fetchOuter() {
    r = call this.fetchInner() @inner;
    return r;
  }
  method fetchInner() {
    v = this.slot;
    return v;
  }
}
class Item { }
"""


class TestReturnChainVisibility:
    """Pin that a library load whose value reaches the application only
    through a call-return assign chain (fetchInner -> fetchOuter ->
    caller) is visible — the seeding rewrite must keep propagating
    backwards across return edges."""

    def test_inner_load_visible_through_return_chain(self):
        prog = parse_program(_RETURN_CHAIN)
        pag = PAG(prog, build_rta(prog))
        visible = library_visible_values(prog, pag)
        inner_loads = [
            t for t in _load_targets(pag) if t[0] == "Box.fetchInner"
        ]
        assert inner_loads
        for target in inner_loads:
            assert target in visible
            assert _counts_as_flow_in(prog, target, visible)

    def test_retrieval_through_chain_cancels_the_leak(self):
        prog = parse_program(_RETURN_CHAIN)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert report.findings == []


class TestDetectorIntegration:
    def test_put_only_is_a_leak(self):
        """Objects put into a HashMap and never retrieved leak, even
        though put internally READS the backing array — the stronger
        condition ignores that read."""
        prog = _program(_PUT_ONLY)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]

    def test_put_and_get_not_a_leak(self):
        prog = _program(_PUT_AND_GET)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_disabling_condition_misses_the_leak(self):
        """The ablation: without the stronger condition, put's internal
        read looks like a retrieval and the leak is missed — exactly why
        Section 4 introduces the condition."""
        prog = _program(_PUT_ONLY)
        config = DetectorConfig(library_condition=False)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_library_entry_sites_not_reported(self):
        """MapEntry allocations inside HashMap.put are library internals:
        the report points at the application site, not the entry site."""
        prog = _program(_PUT_ONLY)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert "HashMap:entry" not in report.leaking_site_labels
