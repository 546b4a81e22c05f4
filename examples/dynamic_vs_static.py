#!/usr/bin/env python
"""Static detection vs dynamic evidence, side by side.

The paper argues static detection is valuable precisely because dynamic
tools need leak-triggering inputs.  This example shows both tool families
on the same program — a work queue whose completed jobs are archived and
never purged — and how they corroborate each other:

1. the static detector flags the archive reference from source alone;
2. the concrete growth profile shows the live-object population climbing
   with every iteration (the "memory footprint grows" symptom);
3. the heap snapshot names the retaining reference, which matches the
   detector's redundant edge;
4. report diffing verifies the fix.
"""

from repro import FixedSchedule, LeakChecker, RegionSpec, parse_program
from repro.core import diff_reports
from repro.semantics import growth_profile, snapshot
from repro.semantics.interp import Interpreter

BUGGY = """
entry Main.main;

class Main {
  static method main() {
    q = new WorkQueue @queue;
    call q.qInit() @qi;
    loop PUMP (*) {
      j = new Job @job;
      call q.run(j) @submit;
    }
  }
}

class WorkQueue {
  field archive;
  field current;
  method qInit() {
    a = new Job[] @archive_arr;
    this.archive = a;
  }
  method run(j) {
    busy = this.current;   // reject overlapping work (reads the slot,
    if (null busy) {       // so `current` is properly shared)
      this.current = j;
      // ... the job executes ...
      a = this.archive;
      a.elem = j;          // archived forever, never purged or read
      this.current = null;
    }
  }
}

class Job { }
"""

FIXED = BUGGY.replace(
    "a.elem = j;          // archived forever, never purged or read",
    "done = j;            // fix: no archival",
)


def main():
    program = parse_program(BUGGY)
    region = RegionSpec("Main.main", "PUMP")

    print("=== 1. static detection ===")
    report = LeakChecker(program).check(region)
    print(report.format())
    assert report.leaking_site_labels == ["job"]
    assert ("archive_arr", "elem") in report.findings[0].redundant_edges

    print("=== 2. dynamic growth profile ===")
    schedule = FixedSchedule(trips_map={"PUMP": 8})
    profile = growth_profile(program, region.text(), schedule=schedule)
    print("live Job instances per iteration:", profile.live_of("job"))
    assert profile.is_monotone("job")
    assert profile.growth_of("job") == 7

    print("\n=== 3. heap snapshot retention ===")
    trace = Interpreter(program, schedule=FixedSchedule(trips_map={"PUMP": 4})).run()
    snap = snapshot(trace)
    retainers = snap.retainers_of("job")
    print("concrete retainers of Job:", sorted(retainers))
    assert ("archive_arr", "elem") in retainers
    print("(matches the static redundant edge exactly)")

    print("\n=== 4. verify the fix by diffing reports ===")
    fixed_report = LeakChecker(parse_program(FIXED)).check(region)
    diff = diff_reports(report, fixed_report)
    print(diff.format())
    assert diff.is_clean_fix
    fixed_profile = growth_profile(
        parse_program(FIXED), region.text(), schedule=schedule
    )
    print("live Job instances after fix:", fixed_profile.live_of("job"))
    assert fixed_profile.growth_of("job") <= 1


if __name__ == "__main__":
    main()
