"""Tests for the PointsTo facade."""

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.queries import Deadline, PointsTo

_SOURCE = """
entry M.main;
class M {
  static method main() {
    h = new H @hs;
    v = new M @vs;
    h.f = v;
    w = h.f;
  }
}
class H { field f; }
"""


def _pt(demand_driven=False):
    prog = parse_program(_SOURCE)
    return PointsTo(prog, build_rta(prog), demand_driven=demand_driven)


class TestFacade:
    def test_whole_program_mode(self):
        pt = _pt(False)
        assert set(pt.pts("M.main", "w")) == {"vs"}

    def test_demand_driven_mode(self):
        pt = _pt(True)
        assert set(pt.pts("M.main", "w")) == {"vs"}

    def test_modes_agree_on_this_program(self):
        whole = _pt(False)
        demand = _pt(True)
        for var in ("h", "v", "w"):
            assert set(whole.pts("M.main", var)) == set(demand.pts("M.main", var))

    def test_field_pts(self):
        pt = _pt(True)
        assert set(pt.field_pts("hs", "f")) == {"vs"}

    def test_may_alias(self):
        pt = _pt(False)
        assert pt.may_alias("M.main", "v", "M.main", "w")
        assert not pt.may_alias("M.main", "h", "M.main", "v")

    def test_demand_driven_small_budget(self):
        prog = parse_program(_SOURCE)
        pt = PointsTo(prog, build_rta(prog), demand_driven=True, budget=10)
        assert set(pt.pts("M.main", "h")) == {"hs"}


class TestDeadline:
    def test_after_ms_none_is_none(self):
        assert Deadline.after_ms(None) is None

    def test_generous_deadline_does_not_expire(self):
        deadline = Deadline.after_ms(60_000)
        assert not deadline.expired()
        assert not deadline.was_exceeded
        assert deadline.remaining() > 0

    def test_expired_deadline_records_exceeded(self):
        deadline = Deadline.after_ms(0)
        assert deadline.expired()
        assert deadline.was_exceeded
        assert deadline.remaining() == 0.0

    def test_expired_deadline_degrades_to_andersen(self):
        """Past the deadline, fresh demand-driven traversals are skipped
        and queries answer from the fallback — still sound, counted as
        deadline_expiries, and the answer is unchanged here."""
        pt = _pt(True)
        with pt.deadline_scope(Deadline.after_ms(0)):
            assert set(pt.pts("M.main", "w")) == {"vs"}
        assert pt.totals.get("deadline_expiries") == 1
        assert pt.totals.get("andersen_fallbacks") == 1
        assert "cfl_queries" not in pt.totals

    def test_deadline_scope_restores(self):
        pt = _pt(True)
        deadline = Deadline.after_ms(0)
        with pt.deadline_scope(deadline):
            pt.pts("M.main", "w")
        assert pt.deadline is None
        # Outside the scope, refinement resumes.
        pt.pts("M.main", "v")
        assert pt.totals.get("cfl_queries") == 1

    def test_memoized_answers_served_past_deadline(self):
        pt = _pt(True)
        assert set(pt.pts("M.main", "w")) == {"vs"}  # memoizes refined
        with pt.deadline_scope(Deadline.after_ms(0)):
            assert set(pt.pts("M.main", "w")) == {"vs"}
        assert pt.totals.get("cfl_memo_hits") == 1
        assert "deadline_expiries" not in pt.totals

    def test_no_deadline_no_counters(self):
        pt = _pt(True)
        pt.pts("M.main", "w")
        assert "deadline_expiries" not in pt.totals
