"""Fleet benchmark: sharded region scans, saturation behavior, identity.

Standalone harness (``make fleet-smoke`` runs the short mode) writing
``BENCH_fleet.json`` with the three acceptance criteria of the
coordinator/worker fleet:

* **canonical identity** — the scaled corpus scanned serially and
  through the fleet coordinator (the path ``POST /analyze-batch``
  takes) produces byte-identical canonical JSON.  This is a hard gate:
  any divergence fails the run.
* **throughput scaling** — regions/second through the coordinator at
  1 worker vs ``min(4, cpu_count)`` workers, measured over warmed
  workers (the adoption LRU primed, so the numbers isolate shard
  execution, not hand-off).  The gate requires the multi-worker fleet
  to beat single-worker throughput when the host actually has spare
  cores; on a single-core host the ladder collapses to one rung and
  the gate records itself as not applicable.
* **graceful saturation** — a ``jobs=1, max_queue=1`` daemon under a
  burst of concurrent cold requests must answer every request with
  either 200 or 429+``Retry-After`` (mirrored into the error body) —
  no dropped connections, no 5xx, and at least one rejection proving
  backpressure engaged.
* **remote fleet identity + requeue** — a two-"host" remote fleet
  (two ``repro worker`` subprocesses with *separate* artifact-cache
  directories on localhost, dialed over the TCP wire protocol) must
  reproduce the serial scan byte-identically: once clean, and once with
  a ``drop`` failpoint (``REPRO_FAILPOINTS``) killing a worker's
  connection mid-shard — the shard must requeue
  onto the survivor (``remote_requeues >= 1``) without exhausting any
  retry budget, and the result must *still* be byte-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--short] \
        [--output BENCH_fleet.json]
"""

import argparse
import json
import os
import sys
import threading
import time

from repro.bench.scale import build_scaled
from repro.client import AnalyzeClient, ClientError
from repro.core.scan import scan_all_loops
from repro.server.app import create_server
from repro.server.coordinator import Coordinator


def run_identity(factor, workers):
    """Serial vs a fresh fleet of forked local workers."""
    program = build_scaled("memocache", factor=factor).program
    serial = scan_all_loops(program).to_json(canonical=True)
    coordinator = Coordinator(workers)
    try:
        fleet = coordinator.scan_program(program).to_json(canonical=True)
    finally:
        coordinator.close()
    return {
        "factor": factor,
        "workers": workers,
        "fleet_matches_serial": fleet == serial,
        "bytes": len(serial),
        "ok": fleet == serial,
    }


def run_scaling(factor, rounds, worker_ladder):
    """Regions/second through warmed fleets of increasing size."""
    app = build_scaled("memocache", factor=factor)
    regions = len(app.regions)
    ladder = []
    for workers in worker_ladder:
        coordinator = Coordinator(workers)
        try:
            coordinator.scan_program(app.program)  # fork + adopt + warm
            started = time.perf_counter()
            for _ in range(rounds):
                coordinator.scan_program(app.program)
            elapsed = time.perf_counter() - started
        finally:
            coordinator.close()
        ladder.append(
            {
                "workers": workers,
                "rounds": rounds,
                "regions_per_round": regions,
                "seconds": round(elapsed, 4),
                "regions_per_second": round(rounds * regions / elapsed, 2),
            }
        )
    single = ladder[0]["regions_per_second"]
    best = max(rung["regions_per_second"] for rung in ladder)
    speedup = best / single if single else 0.0
    applicable = len(ladder) > 1
    return {
        "factor": factor,
        "ladder": ladder,
        "speedup_best_vs_single": round(speedup, 3),
        "gate_applicable": applicable,
        # Lenient: CI runners share cores; the claim is "parallel helps",
        # not a precise parallel-efficiency number.
        "ok": (speedup >= 1.1) if applicable else True,
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

    "Hosts" are subprocess workers with separate cache directories on
    localhost — identical to real remote workers from the transport's
    side.  The requeue phase arms the connection-drop failpoint on both
    workers (each dies at most once), so the doomed shard *must* travel
    the detect-dead-worker -> requeue-on-survivor path and still come
    back byte-identical to the serial scan.
    """
    import tempfile

    from repro.core.regions import candidate_loops, region_text
    from repro.server.remote_worker import spawn_worker

    program = build_scaled("memocache", factor=factor).program
    serial = scan_all_loops(program).to_json(canonical=True)
    fail_region = region_text(candidate_loops(program)[0])
    section = {"factor": factor}
    for phase, env in (
        ("clean", {}),
        ("requeue", {"REPRO_FAILPOINTS": "drop:%s*1" % fail_region}),
    ):
        procs = []
        try:
            addresses = []
            for _ in range(2):
                cache_dir = tempfile.mkdtemp(prefix="fleet-host-")
                proc, address = spawn_worker(cache_dir=cache_dir, env=env)
                procs.append(proc)
                addresses.append(address)
            coordinator = Coordinator(worker_hosts=addresses)
            try:
                fleet = coordinator.scan_program(program).to_json(
                    canonical=True
                )
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
            "snapshot_pushes": stats["remote_snapshot_pushes"],
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
    rounds = 3 if args.short else 8
    cpus = os.cpu_count() or 1
    fleet_workers = min(4, cpus)
    ladder = [1] if fleet_workers == 1 else [1, fleet_workers]

    report = {
        "mode": "short" if args.short else "full",
        "cpu_count": cpus,
        "identity": run_identity(factor=min(factor, 8), workers=2),
        "scaling": run_scaling(factor=factor, rounds=rounds, worker_ladder=ladder),
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
        "fleet bench: identity %s | throughput %s regions/s best "
        "(x%.2f vs single, gate %s) | saturation %d served / %d rejected "
        "| remote %s (%d requeues)"
        % (
            "ok" if identity["ok"] else "DIVERGED",
            max(r["regions_per_second"] for r in scaling["ladder"]),
            scaling["speedup_best_vs_single"],
            "ok"
            if scaling["ok"]
            else "FAIL"
            if scaling["gate_applicable"]
            else "n/a",
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
