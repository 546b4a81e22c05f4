"""Tests for threads-as-outside-objects modeling (Mikou workaround)."""

from repro.callgraph.rta import build_rta
from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.regions import RegionSpec
from repro.core.threads import started_thread_sites
from repro.javalib import with_javalib
from repro.lang import parse_program
from repro.pta.queries import PointsTo

_THREAD_LEAK = """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      t = new Worker @worker;
      x = new Item @item;
      t.payload = x;
      call t.start() @st;
    }
  }
}
class Worker extends Thread {
  field payload;
}
class Item { }
"""

_NEVER_STARTED = """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      t = new Worker @worker;
      x = new Item @item;
      t.payload = x;
    }
  }
}
class Worker extends Thread {
  field payload;
}
class Item { }
"""


def _program(app):
    return parse_program(with_javalib(app, "thread"))


class TestStartedThreadSites:
    def test_started_thread_found(self):
        prog = _program(_THREAD_LEAK)
        graph = build_rta(prog)
        sites = started_thread_sites(prog, graph, PointsTo(prog, graph))
        assert sites == {"worker"}

    def test_unstarted_thread_not_tagged(self):
        prog = _program(_NEVER_STARTED)
        graph = build_rta(prog)
        assert started_thread_sites(prog, graph, PointsTo(prog, graph)) == set()

    def test_non_thread_receiver_ignored(self):
        src = """
        entry Main.main;
        class Main { static method main() {
          x = new NotAThread @nt;
          call x.start() @c;
        } }
        class NotAThread { method start() { return; } }
        """
        prog = _program(src)
        graph = build_rta(prog)
        assert started_thread_sites(prog, graph, PointsTo(prog, graph)) == set()


class TestDeadlineExpiredReceivers:
    def test_sites_resolved_past_the_deadline_are_not_kept(self):
        """Past the deadline the receiver of ``start`` resolves through
        the fallback, which merges both ``Util.id`` calls and tags the
        idle thread too; that answer must not outlive the deadline."""
        from repro.core.pipeline.session import AnalysisSession
        from repro.pta.queries import Deadline

        prog = _program(
            """
            entry Main.main;
            class Main { static method main() {
                a = new Worker @started; b = new Worker @idle;
                s = call Util.id(a) @cs1;
                i = call Util.id(b) @cs2;
                call s.start() @go;
            } }
            class Util { static method id(x) { return x; } }
            class Worker extends Thread { field payload; }
            """
        )
        config = DetectorConfig(demand_driven=True, model_threads=True)
        session = AnalysisSession(prog, config)
        with session.points_to.deadline_scope(Deadline.after_ms(0)):
            assert session.started_thread_sites() == {"idle", "started"}
        assert session.started_thread_sites() == {"started"}


class TestBudgetExhaustedReceivers:
    """Regression: receiver resolution must stay sound under tight
    demand-driven budgets — a dropped ``start`` receiver silently
    untags the thread and hides the leak it keeps alive."""

    def test_zero_budget_facade_still_tags(self):
        prog = _program(_THREAD_LEAK)
        graph = build_rta(prog)
        pt = PointsTo(prog, graph, demand_driven=True, budget=0)
        assert started_thread_sites(prog, graph, pt) == {"worker"}
        assert pt.totals.get("budget_exhaustions", 0) >= 1

    def test_raw_refined_only_solver_still_tags(self):
        from repro.pta.cfl import CFLPointsTo
        from repro.pta.pag import PAG

        prog = _program(_THREAD_LEAK)
        graph = build_rta(prog)
        solver = CFLPointsTo(PAG(prog, graph), budget=0)
        assert started_thread_sites(prog, graph, solver) == {"worker"}

    def test_empty_refined_answer_widened_to_andersen(self):
        """A demand-driven traversal that returns empty (over-pruned or
        exhausted without raising) is re-answered from the sound
        whole-program result and counted as a budget exhaustion."""
        prog = _program(_THREAD_LEAK)
        graph = build_rta(prog)
        pt = PointsTo(prog, graph, demand_driven=True)

        class _EmptySolver:
            _fallback = None

            def is_memoized(self, node):
                return False

            def points_to_refined(self, node):
                return frozenset()

        pt._cfl = _EmptySolver()
        assert started_thread_sites(prog, graph, pt) == {"worker"}
        assert pt.totals.get("budget_exhaustions", 0) >= 1
        assert pt.totals.get("andersen_fallbacks", 0) >= 1

    def test_tight_budget_detector_still_reports(self):
        prog = _program(_THREAD_LEAK)
        config = DetectorConfig(
            model_threads=True, demand_driven=True, budget=0
        )
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]


class TestDetectorIntegration:
    def test_without_modeling_thread_escape_invisible(self):
        """The thread is created inside the loop, so stores into it look
        inside-to-inside and nothing is reported — the paper's first
        (failing) attempt on Mikou."""
        prog = _program(_THREAD_LEAK)
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_with_modeling_escape_reported(self):
        prog = _program(_THREAD_LEAK)
        config = DetectorConfig(model_threads=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]
        assert any("thread" in n for n in report.findings[0].notes)

    def test_thread_site_itself_not_reported(self):
        prog = _program(_THREAD_LEAK)
        config = DetectorConfig(model_threads=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert "worker" not in report.leaking_site_labels

    def test_unstarted_thread_is_ordinary_object(self):
        prog = _program(_NEVER_STARTED)
        config = DetectorConfig(model_threads=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.findings == []

    def test_loads_in_thread_run_do_not_cancel_reports(self):
        """A retrieval by the thread body is not a retrieval by a later
        loop iteration."""
        src = """
        entry Main.main;
        class Main {
          static method main() {
            loop L (*) {
              t = new Worker @worker;
              x = new Item @item;
              t.payload = x;
              call t.start() @st;
            }
          }
        }
        class Worker extends Thread {
          field payload;
          method run() {
            p = this.payload;
          }
        }
        class Item { }
        """
        prog = _program(src)
        config = DetectorConfig(model_threads=True)
        report = LeakChecker(prog, config).check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == ["item"]
