"""Fleet benchmark: program tasks, saturation behavior, identity.

Standalone harness (``make fleet-smoke`` runs the short mode) writing
``BENCH_fleet.json`` with the acceptance criteria of the
coordinator/worker fleet:

* **canonical identity** — a scaled program run as one program task on
  a fleet of forked local workers (the path ``POST /analyze-batch``
  takes for a never-seen program) answers every region with the
  canonical report of a serial scan.  This is a hard gate: any
  divergence fails the run.
* **throughput scaling** — the wall time of a cold ``POST
  /analyze-batch`` of the 13 corpus apps, each with a fresh tag every
  round so that no daemon has seen it, through ``create_server`` with
  0, 1 and 2 workers.  The gate requires 2 workers to beat 1 by
  ``SCALING_GATE`` when the host has spare cores; on a single-core host
  the ladder stops at one worker and the gate records itself as not
  applicable.  ``speedup_vs_no_fleet`` (2 workers, or 1 on one core,
  against none) is reported, not gated.
* **graceful saturation** — a ``jobs=1, max_queue=1`` daemon under a
  burst of concurrent cold requests must answer every request with
  either 200 or 429+``Retry-After`` (mirrored into the error body) —
  no dropped connections, no 5xx, and at least one rejection proving
  backpressure engaged.
* **remote fleet identity + requeue** — a two-"host" remote fleet
  (two ``repro worker`` subprocesses on localhost, dialed over the TCP
  wire protocol) must answer a program task with the serial scan's
  reports: once clean, and once with a ``drop`` failpoint
  (``REPRO_FAILPOINTS``) killing a worker's connection mid-task — the
  task must requeue onto the survivor (``remote_requeues >= 1``)
  without exhausting any retry budget, and the answer must *still* be
  byte-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--short] \
        [--output BENCH_fleet.json]
"""

import argparse
import json
import os
import statistics
import sys
import threading
import time

from repro.bench.apps import build_app, corpus_names
from repro.bench.scale import build_scaled
from repro.client import AnalyzeClient, ClientError
from repro.core.canonical import canonical_report_dict
from repro.core.regions import region_text
from repro.core.scan import scan_all_loops
from repro.server.app import create_server
from repro.server.coordinator import Coordinator

#: Least 2-worker over 1-worker speedup the scaling section accepts.
SCALING_GATE = 1.1


def _canonical(pairs):
    """``(region, report dict)`` pairs with canonical report JSON."""
    return [
        (region, json.dumps(canonical_report_dict(report), sort_keys=True))
        for region, report in pairs
    ]


def _serial(source):
    """A serial scan of ``source`` in the form of :func:`_canonical`."""
    from repro.lang import parse_program

    result = scan_all_loops(parse_program(source))
    return _canonical(
        (region_text(spec), report.as_dict()) for spec, report in result.entries
    )


def run_identity(factor, workers):
    """Serial vs one program task on a fresh fleet of forked workers."""
    source = build_scaled("memocache", factor=factor).source
    serial = _serial(source)
    coordinator = Coordinator(workers)
    try:
        fleet = _canonical(coordinator.scan_program(source))
    finally:
        coordinator.close()
    return {
        "factor": factor,
        "workers": workers,
        "regions": len(serial),
        "fleet_matches_serial": fleet == serial,
        "ok": fleet == serial,
    }


def _corpus_batch(apps, tag):
    """``apps`` as one batch, each on its model's region and with a
    class unique to ``tag``, so no daemon has seen them."""
    return [
        {
            "id": app.name,
            "program": "%s\nclass FleetTag%s { }\n" % (app.source, tag),
            "region": region_text(app.region),
        }
        for app in apps
    ]


def _timed_batches(apps, workers, rounds):
    """Seconds per cold corpus batch through a daemon with ``workers``
    fleet workers, after one untimed round."""
    server = create_server(port=0, workers=workers, max_sessions=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = AnalyzeClient(server.server_address[1], timeout=300)
    seconds = []
    try:
        for number in range(rounds + 1):
            programs = _corpus_batch(apps, "W%dR%d" % (workers, number))
            started = time.perf_counter()
            records = list(client.analyze_batch(programs))
            elapsed = time.perf_counter() - started
            summary = records[-1]
            if summary.get("record") != "summary" or summary["errors"]:
                raise RuntimeError("corpus batch failed: %r" % summary)
            if number:
                seconds.append(elapsed)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return seconds


def run_scaling(rounds, worker_ladder):
    """Cold corpus batches through daemons of increasing fleet size."""
    apps = [build_app(name) for name in corpus_names()]
    programs = len(apps)
    ladder = []
    for workers in worker_ladder:
        seconds = _timed_batches(apps, workers, rounds)
        median = statistics.median(seconds)
        ladder.append(
            {
                "workers": workers,
                "rounds": rounds,
                "programs_per_round": programs,
                "median_ms": round(median * 1000.0, 2),
                "min_ms": round(min(seconds) * 1000.0, 2),
                "max_ms": round(max(seconds) * 1000.0, 2),
                "programs_per_second": round(programs / median, 2),
            }
        )
    by_workers = {rung["workers"]: rung["median_ms"] for rung in ladder}
    best = max(w for w in by_workers if w)
    applicable = best > 1
    speedup = by_workers[1] / by_workers[best]
    return {
        "input": "cold /analyze-batch of the 13 corpus apps, fresh tags "
        "each round, each on its model's region",
        "ladder": ladder,
        "speedup_best_vs_single": round(speedup, 3),
        "speedup_vs_no_fleet": round(by_workers[0] / by_workers[best], 3),
        "gate": SCALING_GATE,
        "gate_applicable": applicable,
        # Lenient: CI runners share cores; the claim is "parallel helps",
        # not a precise parallel-efficiency number.
        "ok": (speedup >= SCALING_GATE) if applicable else True,
    }


def run_saturation(factor, burst):
    """A burst against jobs=1/max_queue=1: only 200s and proper 429s."""
    source = build_scaled("memocache", factor=factor).source
    server = create_server(port=0, jobs=1, max_queue=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = AnalyzeClient(server.server_address[1])
    outcomes = []
    lock = threading.Lock()

    def fire(tag):
        # Distinct digests: every request is a cold scan that actually
        # occupies the admission slot for a while.
        program = source + "\nclass SaturationTag%d { }" % tag
        try:
            data = client.analyze(program)
            outcome = {"status": 200, "warm": data["warm"]}
        except ClientError as error:
            outcome = {
                "status": error.status,
                "code": error.code,
                "retry_after": error.retry_after,
            }
        except Exception as error:  # noqa: BLE001 - a failure IS the result
            outcome = {"status": None, "failure": repr(error)}
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=fire, args=(tag,)) for tag in range(burst)
    ]
    try:
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=120)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    served = [o for o in outcomes if o["status"] == 200]
    rejected = [o for o in outcomes if o["status"] == 429]
    other = [o for o in outcomes if o["status"] not in (200, 429)]
    retry_ok = all(
        o["code"] == "queue_full" and (o["retry_after"] or 0) >= 1
        for o in rejected
    )
    return {
        "burst": burst,
        "served": len(served),
        "rejected": len(rejected),
        "failures": other,
        "retry_after_present": retry_ok,
        "ok": (
            not other
            and rejected
            and retry_ok
            and len(served) + len(rejected) == burst
        ),
    }


def run_remote(factor):
    """Two-host remote fleet: identity clean and through a worker kill.

    "Hosts" are two ``repro worker`` subprocesses on localhost —
    identical to real remote workers from the transport's side.  The
    requeue phase arms the connection-drop failpoint on both workers
    (each drops at most once), so the program task *must* travel the
    detect-dead-worker -> requeue-on-survivor path and still come back
    byte-identical to the serial scan.
    """
    from repro.server.remote_worker import spawn_worker

    source = build_scaled("memocache", factor=factor).source
    serial = _serial(source)
    fail_region = serial[0][0]
    section = {"factor": factor}
    for phase, env in (
        ("clean", {}),
        ("requeue", {"REPRO_FAILPOINTS": "drop:%s*1" % fail_region}),
    ):
        procs = []
        try:
            addresses = []
            for _ in range(2):
                proc, address = spawn_worker(env=env)
                procs.append(proc)
                addresses.append(address)
            coordinator = Coordinator(worker_hosts=addresses)
            try:
                fleet = _canonical(coordinator.scan_program(source))
                stats = coordinator.fleet_stats()
            finally:
                coordinator.close()
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=10)
        section[phase] = {
            "matches_serial": fleet == serial,
            "requeues": stats["remote_requeues"],
            "retry_exhaustions": stats["remote_retry_exhaustions"],
            "workers_alive": stats["remote_workers_alive"],
        }
    section["ok"] = (
        section["clean"]["matches_serial"]
        and section["requeue"]["matches_serial"]
        and section["requeue"]["requeues"] >= 1
        and section["requeue"]["retry_exhaustions"] == 0
    )
    return section


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_fleet.json")
    parser.add_argument(
        "--short",
        action="store_true",
        help="CI mode: smaller corpus, fewer rounds",
    )
    args = parser.parse_args(argv)

    factor = 8 if args.short else 16
    rounds = 5 if args.short else 11
    cpus = os.cpu_count() or 1
    ladder = [0, 1] if cpus == 1 else [0, 1, 2]

    report = {
        "mode": "short" if args.short else "full",
        "cpu_count": cpus,
        "identity": run_identity(factor=min(factor, 8), workers=2),
        "scaling": run_scaling(rounds=rounds, worker_ladder=ladder),
        "saturation": run_saturation(factor=min(factor, 8), burst=6),
        "remote": run_remote(factor=min(factor, 8)),
    }
    report["ok"] = all(
        report[section]["ok"]
        for section in ("identity", "scaling", "saturation", "remote")
    )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    identity = report["identity"]
    scaling = report["scaling"]
    saturation = report["saturation"]
    remote = report["remote"]
    requeues = remote["requeue"]["requeues"]
    print(
        "fleet bench: identity %s | cold corpus batch %s programs/s best "
        "(x%.2f vs single, gate %s; x%.2f vs no fleet) | saturation %d "
        "served / %d rejected | remote %s (%d requeues)"
        % (
            "ok" if identity["ok"] else "DIVERGED",
            max(r["programs_per_second"] for r in scaling["ladder"]),
            scaling["speedup_best_vs_single"],
            "ok"
            if scaling["ok"]
            else "FAIL"
            if scaling["gate_applicable"]
            else "n/a",
            scaling["speedup_vs_no_fleet"],
            saturation["served"],
            saturation["rejected"],
            "ok" if remote["ok"] else "DIVERGED",
            requeues,
        )
    )
    if not report["ok"]:
        for section in ("identity", "scaling", "saturation", "remote"):
            if not report[section]["ok"]:
                print("FAIL %s: %s" % (section, json.dumps(report[section])))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
