"""The analysis daemon and its worker fleet, driven over HTTP.

Each run launches ``repro serve`` from the checkout's sources as a child
process group, talks to it with the repository's ``AnalyzeClient`` (one
client, closed loop), and stops it with SIGINT, the daemon's clean
shutdown, before waiting for it.
"""

import itertools
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time

from repro.client import AnalyzeClient
from repro.core.canonical import canonical_json

from measure import (
    SETUP_REPEATS,
    Loop,
    child_env,
    peak_rss_mb,
    profile_layers,
    speed_scale,
)
from programs import by_name, compute_references, seeded_rounds, tagged

#: Seconds a daemon may take to print its address.
START_TIMEOUT = 60

#: Distinct programs the daemon keeps warm: more than any workload sends,
#: so the warm workload is served from the pool on every request.
MAX_SESSIONS = "16"

#: Fleet size; the machines this runs on may have two cores.
FLEET_WORKERS = "2"

#: Untimed batches before measuring, so that every worker has adopted
#: every program of the batch.
WARMUP_SECONDS = 1.0


class Daemon:
    """One ``repro serve`` child process, ready once ``/healthz`` answers."""

    def __init__(self, root, args):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"] + args,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._drain = None
        try:
            address = self._address()
            # Keep reading stdout so the daemon never blocks on a full pipe.
            self._drain = threading.Thread(target=self._discard, daemon=True)
            self._drain.start()
            self.client = AnalyzeClient(address, timeout=60)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _address(self):
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError("daemon printed no address")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        "daemon exited with code %s" % self.proc.wait()
                    )
                match = re.search(r"http://[^\s]+", line)
                if match:
                    return match.group(0)

    def _discard(self):
        for _ in self.proc.stdout:
            pass

    def stop(self):
        """SIGINT, wait; SIGKILL the whole group if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray fleet workers
        except ProcessLookupError:
            pass
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()


def _start(root, args):
    """A ready daemon, and its start-up time scaled to the reference
    machine."""
    scale = speed_scale()
    daemon = Daemon(root, args)
    return daemon, daemon.ready_s * scale


def _start_stop(root, args):
    daemon, seconds = _start(root, args)
    daemon.stop()
    return seconds


def _with_daemon(root, args, measure):
    """Call ``measure(client, between)`` against a fresh daemon.

    Start-up is timed ``SETUP_REPEATS`` times, the measured daemon being
    the last of them, and again each time ``measure`` calls ``between()``
    (with the measured daemon idle); returns ``measure``'s result and
    every start-up time.
    """
    setups = [_start_stop(root, args) for _ in range(SETUP_REPEATS - 1)]
    daemon, seconds = _start(root, args)
    setups.append(seconds)
    try:
        result = measure(
            daemon.client, lambda: setups.append(_start_stop(root, args))
        )
    finally:
        daemon.stop()
    return result, setups


def _snapshot(client, endpoint):
    """Cumulative daemon-side figures from ``/metrics``; a figure the
    daemon does not report reads as zero."""
    data = client.metrics()
    latency = data.get("latency", {}).get(endpoint, {})
    fleet = data.get("fleet") or {}
    workers = fleet.get("per_worker", {}).values()
    return {
        "requests": latency.get("count", 0),
        "server_s": latency.get("seconds_total", 0.0),
        "busy_s": sum(w.get("busy_seconds", 0.0) for w in workers),
        "shards": fleet.get("shards_total", 0),
        "adoptions": dict(fleet.get("adoptions", {})),
    }


def _measured_loop(client, endpoint, trace, key, rounds, op, seconds, between):
    """The measured closed loop; when tracing, with the daemon's own
    figures over it added to the per-layer totals."""
    before = _snapshot(client, endpoint) if trace else None
    loop = Loop(key).run(rounds, op, seconds, between)
    if trace:
        after = _snapshot(client, endpoint)
        ops = len(loop.latencies)
        requests = max(1, after["requests"] - before["requests"])
        server_ms = (after["server_s"] - before["server_s"]) * 1000.0 / requests
        totals = loop.layer_totals
        totals["server_ms"] = server_ms * ops
        totals["wire_ms"] = sum(loop.latencies) * 1000.0 - server_ms * ops
        totals["fleet_busy_ms"] = (after["busy_s"] - before["busy_s"]) * 1000.0
        totals["fleet_shards"] = after["shards"] - before["shards"]
        adopted = {
            kind: count - before["adoptions"].get(kind, 0)
            for kind, count in after["adoptions"].items()
        }
        if sum(adopted.values()):
            totals["fleet_lru_ratio"] = (
                adopted.get("lru", 0) / sum(adopted.values()) * ops
            )
    return loop


def _analyze_op(client, trace):
    def op(item):
        base, source = item
        data = client.analyze(source)

        def verify():
            ok = (
                canonical_json(data["scan"], kind="scan")
                == base.reference["canonical"]
                and not data["degraded"]
            )
            layers = {}
            if trace:
                # A pooled answer is served from the stored scan, whose
                # profile repeats the cold scan's timings: no stage ran.
                profile = {} if data["warm"] else data["scan"]["profile"]
                layers = profile_layers(
                    profile.get("stages", {}), profile.get("counters", {})
                )
                layers["pool_hit_ratio"] = 1.0 if data["warm"] else 0.0
                layers["regions_checked"] = len(data["scan"]["loops"])
            return ok, layers

        return verify

    return op


def run_analyze(root, bases, seed, seconds, trace, warm):
    """``POST /analyze`` of the loop-bearing corpus apps: every request a
    new program (``warm=False``) or one of a fixed set already pooled."""
    compute_references(bases)
    serial = itertools.count(1)

    def request(base):
        # Warm requests repeat the serial-0 program of each base.
        number = 0 if warm else next(serial)
        return base, tagged(base.source, seed, number)

    def key(item):
        return item[0].name

    def measure(client, between):
        op = _analyze_op(client, trace)
        rounds = (map(request, order) for order in seeded_rounds(bases, seed))
        Loop(key).run(rounds, op, 0)  # fills the pool on the warm workload
        return _measured_loop(
            client, "analyze", trace, key, rounds, op, seconds, between
        )

    loop, setups = _with_daemon(
        root, ["--max-sessions", MAX_SESSIONS], measure
    )
    return loop, setups, peak_rss_mb("children")


def run_fleet(root, bases, seed, seconds, trace):
    """``POST /analyze-batch`` of one tiled program at a time, its regions
    sharded over a warm two-worker fleet."""
    compute_references(bases)
    sources = {base.name: tagged(base.source, seed, 0) for base in bases}

    def measure(client, between):
        def op(base):
            entry = {"id": base.name, "program": sources[base.name]}
            records = list(client.analyze_batch([entry]))
            return lambda: _verify_batch(records, base)

        rounds = seeded_rounds(bases, seed)
        # Until every worker has adopted every program.
        Loop(by_name).run(rounds, op, WARMUP_SECONDS)
        return _measured_loop(
            client, "batch", trace, by_name, rounds, op, seconds, between
        )

    loop, setups = _with_daemon(root, ["--workers", FLEET_WORKERS], measure)
    return loop, setups, peak_rss_mb("children")


def _verify_batch(records, base):
    """Every region's leaking sites as the serial scan found them, no
    error record, and a clean summary.  Warm workers answer from their
    region caches, so the reports' stage timings are not this batch's:
    the fleet's per-layer figures come from ``/metrics`` instead."""
    found = {}
    summary = None
    ok = True
    for record in records:
        kind = record["record"]
        if kind == "region":
            found[record["region"]] = sorted(record["leaking_sites"])
        elif kind == "summary":
            summary = record
        else:
            ok = False
    ok = ok and summary is not None and summary["errors"] == 0
    ok = ok and found == base.reference["regions"]
    return ok, {"regions_checked": len(found)}
