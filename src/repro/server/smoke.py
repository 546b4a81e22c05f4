"""Service smoke check: ``python -m repro.server.smoke``.

Boots a real ``repro serve`` subprocess on an ephemeral port, then runs
the request loop the daemon exists for — through
:class:`repro.client.AnalyzeClient`, so the smoke exercises the same
client library users are pointed at:

* a cold ``POST /analyze`` of the largest Table 1 subject,
* a loop of warm repeats, each of which must be answered from the
  session pool (``warm: true``) with findings identical to the cold
  response,
* a ``GET /metrics`` cross-check of the warm/cold counters,

and asserts that the median warm latency is strictly below the cold
latency.  Exits nonzero on the first violation.  The CI ``serve-smoke``
job runs this (``make serve-smoke``); it is also the quickest local
end-to-end check after touching :mod:`repro.server`.
"""

import subprocess
import sys
import time

from repro.bench.apps import build_app
from repro.client import AnalyzeClient

SUBJECT = "mysql-connector-j"
WARM_REQUESTS = 5


def start_server(extra_args=()):
    """Boot ``repro serve`` on an ephemeral port; return (process, port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline().strip()
    # "serving on http://127.0.0.1:PORT (...)"
    try:
        port = int(banner.split("://", 1)[1].split(" ", 1)[0].split(":")[1])
    except (IndexError, ValueError):
        process.kill()
        raise SystemExit("cannot parse serve banner: %r" % banner)
    return process, port


def _timed_analyze(client, source):
    started = time.perf_counter()
    data = client.analyze(source)
    return time.perf_counter() - started, data


def main():
    source = build_app(SUBJECT).source
    process, port = start_server()
    client = AnalyzeClient(port)
    problems = []
    try:
        cold_seconds, cold = _timed_analyze(client, source)
        if cold.get("warm") is not False:
            problems.append("first request was not cold: %r" % cold.get("warm"))

        warm_seconds = []
        for i in range(WARM_REQUESTS):
            seconds, warm = _timed_analyze(client, source)
            warm_seconds.append(seconds)
            if warm.get("warm") is not True:
                problems.append("repeat %d was not warm" % i)
            if warm["scan"]["leaking_sites"] != cold["scan"]["leaking_sites"]:
                problems.append("warm findings diverge from cold")

        median_warm = sorted(warm_seconds)[len(warm_seconds) // 2]
        if median_warm >= cold_seconds:
            problems.append(
                "warm not faster than cold: median warm %.4fs >= cold %.4fs"
                % (median_warm, cold_seconds)
            )

        metrics = client.metrics()["counters"]
        if metrics.get("cold_misses") != 1:
            problems.append("expected 1 cold miss, got %r" % metrics)
        if metrics.get("warm_hits") != WARM_REQUESTS:
            problems.append(
                "expected %d warm hits, got %r" % (WARM_REQUESTS, metrics)
            )

        print(
            "serve smoke: cold %.4fs, warm median %.4fs over %d requests "
            "(speedup %.1fx), sites %s"
            % (
                cold_seconds,
                median_warm,
                WARM_REQUESTS,
                cold_seconds / median_warm if median_warm else float("inf"),
                cold["scan"]["leaking_sites"],
            )
        )
        for problem in problems:
            print("FAIL %s" % problem)
        return 1 if problems else 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
