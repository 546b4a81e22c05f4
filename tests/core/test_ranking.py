"""Tests for suspicious-loop ranking (the paper's future-work feature)."""

from repro.core.ranking import (
    DEFAULT_WEIGHTS,
    profile_scores,
    rank_loops,
    structural_scores,
)
from repro.lang import parse_program
from repro.semantics.interp import FixedSchedule

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop EVENT (*) {
      x = new Item @item;
      h.slot = x;
      call Main.work(h) @cw;
    }
    loop IDLE (*) {
      y = h.slot;
    }
  }
  static method work(a) {
    b = new Item @work_item;
    a.other = b;
  }
}
class Holder { field slot; field other; }
class Item { }
"""

_NESTED = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop OUTER (*) {
      loop INNER (*) {
        x = new Item @item;
        h.slot = x;
      }
    }
  }
}
class Holder { field slot; }
class Item { }
"""

#: ``L2`` labels an outermost loop of ``Main.main`` and a nested loop of
#: ``Main.other``; labels name loops within one method only.
_SHARED_LABEL = """
entry Main.main;
class Main {
  static method main() {
    loop L2 (*) {
      x = new Item @item;
    }
    call Main.other() @co;
  }
  static method other() {
    loop L1 (*) {
      loop L2 (*) {
        y = null;
      }
    }
  }
}
class Item { }
"""

#: ``Main.main`` and ``Main.other`` each run a loop labelled ``L``.
_SAME_LABEL_TWO_METHODS = """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      x = new Item @main_item;
    }
    call Main.other() @co;
  }
  static method other() {
    loop L (*) {
      y = new Item @other_item;
    }
  }
}
class Item { }
"""


class TestStructuralScores:
    def test_allocating_loop_ranks_first(self):
        prog = parse_program(_SOURCE)
        ranked = structural_scores(prog)
        assert ranked[0].spec.loop_label == "EVENT"

    def test_features_populated(self):
        prog = parse_program(_SOURCE)
        ranked = structural_scores(prog)
        event = next(r for r in ranked if r.spec.loop_label == "EVENT")
        assert event.features["allocations"] == 1
        assert event.features["stores"] == 1
        assert event.features["calls"] == 1
        assert event.features["reachable_allocations"] == 1

    def test_outermost_bonus(self):
        prog = parse_program(_NESTED)
        ranked = structural_scores(prog)
        by_label = {r.spec.loop_label: r for r in ranked}
        assert by_label["OUTER"].features["outermost"] == 1
        assert by_label["INNER"].features["outermost"] == 0

    def test_nesting_is_decided_per_method(self):
        ranked = structural_scores(parse_program(_SHARED_LABEL))
        by_region = {
            (r.spec.method_sig, r.spec.loop_label): r for r in ranked
        }
        assert by_region["Main.main", "L2"].features["outermost"] == 1
        assert by_region["Main.main", "L2"].score == 7.0
        assert by_region["Main.other", "L1"].features["outermost"] == 1
        assert by_region["Main.other", "L2"].features["outermost"] == 0
        assert ranked[0].spec.method_sig == "Main.main"

    def test_weights_overridable(self):
        prog = parse_program(_SOURCE)
        ranked = structural_scores(
            prog, weights={"loads": 100.0, "allocations": 0.0, "stores": 0.0,
                           "calls": 0.0, "reachable_allocations": 0.0,
                           "outermost": 0.0}
        )
        assert ranked[0].spec.loop_label == "IDLE"

    def test_deterministic_order(self):
        prog = parse_program(_SOURCE)
        first = [r.spec.loop_label for r in structural_scores(prog)]
        second = [r.spec.loop_label for r in structural_scores(prog)]
        assert first == second


class TestProfileScores:
    def test_trip_counts_observed(self):
        prog = parse_program(_SOURCE)
        trips = profile_scores(
            prog, FixedSchedule(trips_map={"EVENT": 7, "IDLE": 1})
        )
        assert trips["EVENT"] == 7
        assert trips["IDLE"] == 1

    def test_profile_boosts_hot_loop(self):
        prog = parse_program(_SOURCE)
        # Give IDLE an absurd trip count: frequency should dominate.
        ranked = rank_loops(
            prog,
            schedule=FixedSchedule(trips_map={"EVENT": 0, "IDLE": 1000}),
        )
        assert ranked[0].spec.loop_label == "IDLE"
        assert ranked[0].features["trips"] == 1000

    def test_same_label_loops_count_their_own_trips(self):
        """Labels name loops within one method only: each method's loop
        ``L`` ran 3 times, so each is ranked on 3 trips, not 6."""
        ranked = rank_loops(
            parse_program(_SAME_LABEL_TWO_METHODS),
            schedule=FixedSchedule(trips_map={"L": 3}),
        )
        trips = {
            (r.spec.method_sig, r.spec.loop_label): r.features["trips"]
            for r in ranked
        }
        assert trips == {("Main.main", "L"): 3, ("Main.other", "L"): 3}

    def test_default_weights_complete(self):
        prog = parse_program(_SOURCE)
        for entry in structural_scores(prog):
            assert set(entry.features) <= set(DEFAULT_WEIGHTS)
