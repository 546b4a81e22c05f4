"""End-to-end benchmark of the leak detector, its daemon and its fleet.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the names ``BENCHMARK.json`` lists):

* ``corpus-cold`` -- library cold checks of the thirteen corpus apps;
* ``large-cold`` -- library cold checks of 10x/24x tilings and the
  points-to-dense stress program;
* ``daemon-cold`` -- ``POST /analyze`` of a program the daemon has never
  seen (session-pool miss);
* ``daemon-warm`` -- ``POST /analyze`` of programs already pooled
  (session-pool hit, incremental fast path);
* ``fleet-warm`` -- ``POST /analyze-batch`` sharded over a warm
  two-worker process fleet.

Every workload is a closed loop of one client.  ``--seed`` draws the
order of the programs and names each request's program uniquely; the
output of every operation is compared with a serial in-process scan.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics (means per operation) with ``--trace 1``.

End-to-end times are scaled to a reference machine speed, taken before
every round and every set-up from a fixed unit of interpreter work
(``measure.speed_scale``): on machines shared with other tenants the
same operation takes up to 1.8x longer for seconds at a time, and
unscaled medians of ten runs differed by more than 50%.  ``latency_ms``
is the median over the workload's programs of each program's median
latency, ``pass_ms`` the sum of those medians.  Per-layer times are
unscaled means.
"""

import argparse
import json
import os
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload, seed, seconds, trace):
    import inprocess
    import programs
    import service

    if workload == "corpus-cold":
        return inprocess.run(
            ROOT, programs.corpus_programs(), seed, seconds, trace
        )
    if workload == "large-cold":
        return inprocess.run(
            ROOT, programs.large_programs(), seed, seconds, trace
        )
    if workload in ("daemon-cold", "daemon-warm"):
        return service.run_analyze(
            ROOT,
            programs.loop_programs(),
            seed,
            seconds,
            trace,
            warm=workload == "daemon-warm",
        )
    if workload == "fleet-warm":
        return service.run_fleet(
            ROOT, programs.fleet_programs(), seed, seconds, trace
        )
    raise SystemExit("error: unknown workload %r" % workload)


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro sources under %s" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Unwind on SIGTERM too, so that the daemons a run started are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from measure import latency_metrics

    loop, setups, rss_mb = _run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        wanted = spec["per_layer"]
        values = loop.layer_means()
    else:
        wanted = spec["end_to_end"]
        values = latency_metrics(loop.samples)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = rss_mb
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
