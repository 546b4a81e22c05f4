"""Concrete resource-event oracle (:mod:`tests.semantics.resource_oracle`).

Pins the ground-truth semantics the differential property tests lean
on: which concrete acquires count as in-loop, when a later release
clears an acquire, and how instance-level leaks lift to sites.
"""

from repro.javalib import library_source
from repro.javalib.resources import ACQUIRE, RELEASE, ResourceModel, ResourceSpec
from repro.lang import parse_program
from repro.semantics.interp import FixedSchedule
from tests.semantics.resource_oracle import run_with_resource_log


def _run(body, trips=3, prelude="", schedule=None):
    source = library_source("filestream", "dbconnection") + """
entry Main.main;
class Main {
  static method main() {
    %s
    loop L (*) {
      %s
    }
  }
}
""" % (prelude, body)
    program = parse_program(source)
    schedule = schedule or FixedSchedule(trips_map={"L": trips})
    return run_with_resource_log(program, schedule=schedule)


class TestEventRecording:
    def test_acquire_and_release_events(self):
        _, log = _run(
            "f = new FileStream @s; call f.open() @a; call f.close() @c;",
            trips=2,
        )
        assert [e.event for e in log.events] == [
            ACQUIRE, RELEASE, ACQUIRE, RELEASE,
        ]
        assert all(e.obj.site == "s" for e in log.events)
        assert [e.iteration_in("L") for e in log.events] == [1, 1, 2, 2]

    def test_non_resource_calls_are_not_events(self):
        _, log = _run(
            "f = new FileStream @s; d = call f.read() @r;",
        )
        assert log.events == []

    def test_events_for_filters_by_instance(self):
        _, log = _run("f = new FileStream @s; call f.open() @a;", trips=2)
        oid = log.events[0].obj.oid
        assert len(log.events_for(oid)) == 1
        assert log.events_for(oid)[0].event == ACQUIRE


class TestLeakedInstances:
    def test_unreleased_in_loop_acquire_leaks(self):
        _, log = _run("f = new FileStream @s; call f.open() @a;", trips=3)
        assert len(log.leaked_instances("L")) == 3
        assert log.leaked_sites("L") == ["s"]

    def test_release_clears_the_acquire(self):
        _, log = _run(
            "f = new FileStream @s; call f.open() @a; call f.close() @c;",
            trips=3,
        )
        assert log.leaked_instances("L") == []
        assert log.leaked_sites("L") == []

    def test_release_after_the_loop_clears_it(self):
        source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    f = new FileStream @warm;
    loop L (*) {
      f = new FileStream @s;
      call f.open() @a;
    }
    call f.close() @c;
  }
}
"""
        program = parse_program(source)
        _, log = run_with_resource_log(
            program, schedule=FixedSchedule(trips_map={"L": 2})
        )
        # Only the last iteration's stream is ever closed; the first
        # iteration's instance still leaks.
        assert len(log.leaked_instances("L")) == 1
        assert log.leaked_sites("L") == ["s"]

    def test_acquire_outside_the_loop_does_not_count(self):
        _, log = _run(
            "d = call f.read() @r;",
            prelude="f = new FileStream @pre; call f.open() @a;",
        )
        assert log.leaked_instances("L") == []

    def test_reacquire_after_release_leaks_again(self):
        """close() only clears acquires that precede it: an open that
        follows the close leaves the instance held."""
        source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    f = new FileStream @pre;
    loop L (*) {
      call f.open() @a;
      call f.close() @c;
      call f.open() @a2;
    }
  }
}
"""
        program = parse_program(source)
        _, log = run_with_resource_log(
            program, schedule=FixedSchedule(trips_map={"L": 1})
        )
        assert log.leaked_sites("L") == ["pre"]

    def test_custom_model_governs_classification(self):
        source = """
entry Main.main;
class Lease { method grab() { } method drop() { } }
class Main {
  static method main() {
    loop L (*) {
      x = new Lease @lease;
      call x.grab() @g;
    }
  }
}
"""
        program = parse_program(source)
        model = ResourceModel(
            {"Lease": ResourceSpec("Lease", ("grab",), ("drop",), "lease")}
        )
        _, log = run_with_resource_log(
            program, schedule=FixedSchedule(trips_map={"L": 2}), model=model
        )
        assert log.leaked_sites("L") == ["lease"]
