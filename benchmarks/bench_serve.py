"""Analysis-service benchmarks: cold vs pool-warm request latency.

The daemon's contract is that repeat requests for an unchanged program
are served from the session pool via the incremental fast path — no
call graph, no points-to — so warm ``POST /analyze`` latency must sit
well below cold.  These benchmarks run against an in-process server
(real HTTP over a loopback socket, same handler stack as ``repro
serve``) on the largest Table 1 subject through
:class:`repro.client.AnalyzeClient`, and
``test_warm_latency_beats_cold`` enforces the ordering that the CI
smoke job (``make serve-smoke``) checks against a real subprocess.
"""

import itertools
import threading
import time

import pytest

from repro.bench.apps import build_app
from repro.client import AnalyzeClient
from repro.server.app import create_server

SUBJECT = "mysql-connector-j"


@pytest.fixture(scope="module")
def served():
    server = create_server(port=0, max_sessions=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield AnalyzeClient(server.server_address[1])
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def subject_source():
    return build_app(SUBJECT).source


def test_cold_analyze(benchmark, served, subject_source):
    """Every round mutates a comment-free filler label so the digest is
    new: always a cold scan."""
    fresh = itertools.count()

    def cold_request():
        tag = next(fresh)
        return served.analyze(subject_source + "\nclass BenchTag%d { }" % tag)

    data = benchmark.pedantic(cold_request, rounds=5, iterations=1)
    assert data["warm"] is False


def test_warm_analyze(benchmark, served, subject_source):
    served.analyze(subject_source)  # prime the pool

    data = benchmark(served.analyze, subject_source)
    assert data["warm"] is True
    counters = data["scan"]["profile"]["counters"]
    assert counters.get("incremental_fast_path") == 1
    assert counters.get("incremental_rechecked", 0) == 0


def test_warm_latency_beats_cold(served, subject_source):
    """The pool must pay for itself: median warm latency strictly below
    median cold latency on the largest subject."""
    fresh = itertools.count(10_000)

    def timed(thunk):
        started = time.perf_counter()
        data = thunk()
        return time.perf_counter() - started, data

    cold_times = []
    for _ in range(3):
        source = subject_source + "\nclass WarmTag%d { }" % next(fresh)
        seconds, data = timed(lambda s=source: served.analyze(s))
        assert data["warm"] is False
        cold_times.append(seconds)

    served.analyze(subject_source)  # prime
    warm_times = []
    for _ in range(3):
        seconds, data = timed(lambda: served.analyze(subject_source))
        assert data["warm"] is True
        warm_times.append(seconds)

    cold = sorted(cold_times)[1]
    warm = sorted(warm_times)[1]
    assert warm < cold, (
        "warm requests should be served from the pool: warm=%.4fs cold=%.4fs"
        % (warm, cold)
    )
