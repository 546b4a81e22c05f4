"""Tests for heap-growth profiling — the concrete severity signal."""

import pytest

from repro.errors import ResolutionError
from repro.lang import parse_program
from repro.semantics.gc import growth_profile
from repro.semantics.interp import FixedSchedule
from tests.conftest import FIGURE1_SOURCE, SIMPLE_LEAK_SOURCE, SIMPLE_SHARED_SOURCE

_CONTAINER_LEAK = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      n = new Node @node;
      old = h.head;
      if (nonnull old) {
        n.next = old;
      }
      h.head = n;
    }
  }
}
class Holder { field head; }
class Node { field next; }
"""


#: Two loops named ``L`` in two methods, and a loop ``K`` between them
#: that grows a linked list of ``node``s.
_SAME_LABEL_TWO_METHODS = """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      x = new Item @a;
    }
    call Main.other() @co;
  }
  static method other() {
    q = new Node @head;
    loop K (*) {
      z = new Node @node;
      z.next = q;
      q = z;
    }
    loop L (*) {
      y = new Item @b;
    }
  }
}
class Item { }
class Node { field next; }
"""


def _profile(source, region="Main.main:L", trips=6, **kwargs):
    prog = parse_program(source)
    label = region.rpartition(":")[2]
    schedule = FixedSchedule(trips_map={label: trips}, default_trips=2)
    return growth_profile(prog, region, schedule=schedule, **kwargs)


class TestGrowthProfile:
    def test_linked_container_grows_linearly(self):
        profile = _profile(_CONTAINER_LEAK, trips=6)
        series = profile.live_of("node")
        assert series == [1, 2, 3, 4, 5, 6]
        assert profile.is_monotone("node")
        assert profile.growth_of("node") == 5

    def test_overwritten_slot_stays_flat(self):
        """SIMPLE_LEAK stores into a plain field: statically a leak
        pattern, but concretely only one instance is retained — the
        growth profile is how one distinguishes severities."""
        profile = _profile(SIMPLE_LEAK_SOURCE, trips=6)
        series = profile.live_of("item")
        assert max(series) <= 2  # current + at most the overwritten one
        assert profile.growth_of("item") <= 1

    def test_shared_slot_stays_flat(self):
        profile = _profile(SIMPLE_SHARED_SOURCE, trips=6)
        assert profile.growth_of("item") <= 1

    def test_growing_sites_threshold(self):
        profile = _profile(_CONTAINER_LEAK, trips=6)
        assert profile.growing_sites() == ["node"]

    def test_total_live_includes_outside_objects(self):
        profile = _profile(_CONTAINER_LEAK, trips=3)
        totals = profile.total_live()
        # holder + nodes
        assert totals == [2, 3, 4]

    def test_figure1_orders_accumulate(self, figure1):
        """Figure 1's leak is sustained: the live Order population grows
        every transaction (kept by Customer.orders), even though curr is
        cleaned up."""
        profile = growth_profile(
            figure1,
            "Main.main:L1",
            schedule=FixedSchedule(trips_map={"L1": 5, "LC": 1}),
        )
        assert profile.is_monotone("a5")
        assert profile.growth_of("a5") == 4
        assert "a5" in profile.growing_sites()

    def test_unprofiled_loop_yields_no_samples(self):
        profile = _profile(_CONTAINER_LEAK, trips=0)
        assert profile.samples == []
        assert profile.growing_sites() == []

    @pytest.mark.parametrize(
        "region", ["L", "Main.main", "Main.main:GHOST", "Main.ghost:L"]
    )
    def test_region_must_name_an_existing_loop(self, region):
        """A bare label, a method region and a missing loop or method
        are refused, as every ``--region`` is."""
        with pytest.raises(ResolutionError):
            _profile(_CONTAINER_LEAK, region=region)

    def test_same_label_loops_profile_apart(self):
        """Regression: the profile sampled every loop labelled ``L``,
        numbered by the label-keyed iteration map, so ``Main.other:L``
        took ``Main.main:L``'s three samples too and, with them, the
        ``node`` list that loop ``K`` built in between as growth."""
        schedule = FixedSchedule(trips_map={"L": 3, "K": 3})
        program = parse_program(_SAME_LABEL_TWO_METHODS)
        profile = growth_profile(program, "Main.other:L", schedule=schedule)
        assert profile.region == "Main.other:L"
        assert profile.iterations == [1, 2, 3]
        assert profile.live_of("node") == [3, 3, 3]
        assert profile.live_of("b") == [1, 1, 1]
        assert profile.growing_sites() == []
        first = growth_profile(program, "Main.main:L", schedule=schedule)
        assert first.iterations == [1, 2, 3]
        assert first.live_of("node") == [0, 0, 0]

    def test_iterations_sequential(self):
        profile = _profile(_CONTAINER_LEAK, trips=4)
        assert profile.iterations == [1, 2, 3, 4]


class TestGrowthAgainstStaticTruth:
    def test_benchmark_true_leaks_grow(self):
        """On the Derby model, the ground-truth true leaks all show
        concrete growth, and the singleton FPs do not — the dynamic
        confirmation of the model's embedded classifications."""
        from repro.bench.apps.derby import build

        app = build()
        profile = growth_profile(
            app.program,
            app.region.text(),
            schedule=FixedSchedule(trips_map={"L1": 6}, default_trips=1),
        )
        growing = set(profile.growing_sites())
        assert app.truth.leak_sites <= growing
        for fp_site in app.truth.fp_sites:
            assert profile.growth_of(fp_site) <= 1
