"""Tests for the IR cleanup optimizer passes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, LeakChecker, RegionSpec

_NO_PIVOT = DetectorConfig(pivot=False)
from repro.ir.optimize import (
    eliminate_dead_copies,
    optimize_program,
    propagate_copies,
)
from repro.ir.stmts import CopyStmt, StoreStmt, walk
from repro.lang import parse_program
from repro.semantics.interp import RandomSchedule, execute

from tests.properties.strategies import loop_programs


def _method(source, sig="A.m"):
    return parse_program(source, validate=False).method(sig)


class TestCopyPropagation:
    def test_straight_line_chain(self):
        m = _method(
            "class A { field f; method m(p) { a = p; b = a; b.f = b; } }"
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        assert store.base == "p"
        assert store.source == "p"

    def test_redefinition_invalidates(self):
        m = _method(
            """class A { field f; method m(p, q) {
              a = p;
              a = q;
              a.f = a;
            } }"""
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        assert store.base == "q"

    def test_source_redefinition_invalidates(self):
        m = _method(
            """class A { field f; method m(p, q) {
              a = p;
              p = q;
              a.f = a;
            } }"""
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        # a's copy of (old) p must NOT be rewritten to the new p
        assert store.base == "a"

    def test_branch_inherits_incoming_copies(self):
        m = _method(
            """class A { field f; method m(p) {
              a = p;
              if (*) { a.f = a; }
            } }"""
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        assert store.base == "p"

    def test_after_branch_conservative(self):
        m = _method(
            """class A { field f; method m(p, q) {
              a = p;
              if (*) { a = q; }
              a.f = a;
            } }"""
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        assert store.base == "a"  # unknown which definition reaches

    def test_loop_body_starts_cold(self):
        m = _method(
            """class A { field f; method m(p) {
              a = p;
              loop L (*) {
                a.f = a;
                a = call A.next(a) @c;
              }
            }
            static method next(x) { return x; } }"""
        )
        propagate_copies(m)
        store = next(s for s in walk(m.body) if isinstance(s, StoreStmt))
        # 'a' changes across iterations: must not be rewritten to p
        assert store.base == "a"

    def test_condition_variable_rewritten(self):
        m = _method(
            """class A { method m(p) {
              a = p;
              if (nonnull a) { x = a; }
            } }"""
        )
        propagate_copies(m)
        cond = next(s for s in walk(m.body) if type(s).__name__ == "IfStmt").cond
        assert cond.var == "p"


class TestDeadCopyElimination:
    def test_write_only_copy_removed(self):
        m = _method("class A { method m(p) { a = p; return p; } }")
        assert eliminate_dead_copies(m) == 1
        assert not any(isinstance(s, CopyStmt) for s in walk(m.body))

    def test_self_copy_removed(self):
        m = _method("class A { method m(p) { p = p; return p; } }")
        assert eliminate_dead_copies(m) == 1

    def test_used_copy_kept(self):
        m = _method("class A { method m(p) { a = p; return a; } }")
        assert eliminate_dead_copies(m) == 0

    def test_cascading_removal(self):
        """Removing the outer dead copy makes the inner one dead too."""
        m = _method("class A { method m(p) { a = p; b = a; return p; } }")
        assert eliminate_dead_copies(m) == 2

    def test_allocations_never_removed(self):
        m = _method("class A { method m() { a = new A @keep; } }")
        eliminate_dead_copies(m)
        sites = [s for s in walk(m.body) if type(s).__name__ == "NewStmt"]
        assert len(sites) == 1

    def test_nested_blocks_swept(self):
        m = _method(
            "class A { method m(p) { if (*) { a = p; } return p; } }"
        )
        assert eliminate_dead_copies(m) == 1


class TestOptimizeProgram:
    def test_stats(self, figure1):
        stats = optimize_program(figure1)
        assert stats["copies_propagated_methods"] == len(
            list(figure1.all_methods())
        )

    def test_detector_report_unchanged(self, figure1):
        before = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        optimize_program(figure1)
        after = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        assert before.leaking_site_labels == after.leaking_site_labels
        assert (
            before.findings[0].redundant_edges
            == after.findings[0].redundant_edges
        )

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loop_programs(), st.integers(min_value=0, max_value=2**16))
    def test_semantics_preserved_on_random_programs(self, source, seed):
        """The optimizer must not change observable behaviour: identical
        allocation order and heap effects under the same schedule."""
        original = parse_program(source)
        optimized = parse_program(source)
        optimize_program(optimized)

        t1 = execute(original, schedule=RandomSchedule(seed=seed, max_trips=3))
        t2 = execute(optimized, schedule=RandomSchedule(seed=seed, max_trips=3))
        assert [o.site for o in t1.objects] == [o.site for o in t2.objects]
        assert [
            (e.source.site, e.field, e.base.site) for e in t1.stores
        ] == [(e.source.site, e.field, e.base.site) for e in t2.stores]
        assert [
            (e.value.site, e.field, e.base.site) for e in t1.loads
        ] == [(e.value.site, e.field, e.base.site) for e in t2.loads]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loop_programs())
    def test_detector_reports_refined_on_random_programs(self, source):
        """Copy propagation can only *sharpen* the flow-insensitive
        detector: rewriting a use of ``x`` (where ``x = y`` holds) to
        ``y`` swaps in a variable with a subset points-to set, so both
        flow relations of the optimized program refine the original's.

        The *report* is not monotone under that sharpening — leaking is
        flows-out AND NOT flows-in, and removing a spurious read-back
        can surface a site the original suppressed.  So a newly
        reported site is only legitimate when the original analysis
        also saw it escape and suppressed it through a flows-in pair
        that sharpening removed."""
        original = parse_program(source)
        optimized = parse_program(source)
        optimize_program(optimized)
        spec = RegionSpec("Main.main", "L")
        checker_a = LeakChecker(original, _NO_PIVOT)
        checker_b = LeakChecker(optimized, _NO_PIVOT)
        a = checker_a.check(spec)
        b = checker_b.check(spec)
        _, out_a, in_a = checker_a.flow_relations(spec)
        _, out_b, in_b = checker_b.flow_relations(spec)
        assert set(out_b) <= set(out_a)
        assert set(in_b) <= set(in_a)
        extra = set(b.leaking_site_labels) - set(a.leaking_site_labels)
        for site in extra:
            assert any(pair.site == site for pair in out_a)
            assert any(pair.site == site for pair in in_a)
