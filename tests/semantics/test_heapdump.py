"""Tests for heap snapshots and retention queries."""

from repro.lang import parse_program
from repro.semantics.heapdump import snapshot
from repro.semantics.interp import FixedSchedule, execute
from tests.conftest import FIGURE1_SOURCE, SIMPLE_LEAK_SOURCE


def _snapshot(source, trips=3, **trips_map):
    prog = parse_program(source)
    trace = execute(
        prog, schedule=FixedSchedule(trips_map=trips_map, default_trips=trips)
    )
    return snapshot(trace)


class TestSnapshot:
    def test_final_heap_edges(self):
        snap = _snapshot(SIMPLE_LEAK_SOURCE, L=3)
        holder = snap.trace.objects_of_site("holder")[0]
        edges = [(f, t) for oid, f, t in snap.edges if oid == holder.oid]
        assert len(edges) == 1  # the slot holds only the last item
        assert edges[0][0] == "slot"
        assert edges[0][1].site == "item"

    def test_retainers_of(self):
        snap = _snapshot(SIMPLE_LEAK_SOURCE, L=3)
        assert snap.retainers_of("item") == {("holder", "slot")}

    def test_retained_count_overwritten_slot(self):
        """A plain field keeps only one instance alive, however many
        iterations ran — the overwritten-slot FP pattern, concretely."""
        snap = _snapshot(SIMPLE_LEAK_SOURCE, L=5)
        assert len({t.oid for _, _, t in snap.edges if t.site == "item"}) == 1

    def test_figure1_retention_matches_static_report(self, figure1):
        """The concrete retainers of the Order include exactly the
        redundant edge the static detector reports (a34.elem) — and the
        cleaned-up curr reference is NOT a retainer at the end."""
        from repro.core import LeakChecker, RegionSpec

        trace = execute(
            figure1, schedule=FixedSchedule(trips_map={"L1": 4, "LC": 1})
        )
        snap = snapshot(trace)
        retainers = snap.retainers_of("a5")
        assert ("a34", "elem") in retainers

        report = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        for base, field in report.findings[0].redundant_edges:
            assert (base, field) in retainers

    def test_array_retains_growing_population(self, figure1):
        """Unlike a plain field, the orders array accumulates instances
        across iterations — the sustained-leak signature."""
        trace = execute(
            figure1, schedule=FixedSchedule(trips_map={"L1": 4, "LC": 1})
        )
        snap = snapshot(trace)
        # our array model keeps one elem slot; sustainment shows in the
        # store-effect history rather than the final heap
        writes = [e for e in trace.stores if e.base.site == "a34"]
        assert len(writes) == 4
