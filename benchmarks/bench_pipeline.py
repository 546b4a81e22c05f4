"""Pipeline benchmarks: session-level artifact reuse.

The staged pipeline's selling point is that program-level artifacts
(call graph, points-to state, statement and store-edge indexes) are
built once per session instead of once per region check.  These
benchmarks measure that directly on the largest subject.  The fleet's
fan-out is timed by ``bench_fleet.py`` and perfbench's ``fleet-warm``.
"""

from repro.core.pipeline import AnalysisSession
from repro.core.scan import scan_all_loops


def test_rebuild_every_round(benchmark, apps):
    """Baseline: the seed behaviour — every check pays full rebuild."""
    app = apps["mysql-connector-j"]
    session = AnalysisSession(
        app.program, app.config, reuse_artifacts=False
    ).warm()

    def round_trip():
        session.check(app.region)
        session.flow_relations(app.region)

    benchmark(round_trip)


def test_session_reuse_every_round(benchmark, apps):
    """Same workload through the memoizing session."""
    app = apps["mysql-connector-j"]
    session = AnalysisSession(app.program, app.config).warm()

    def round_trip():
        session.check(app.region)
        session.flow_relations(app.region)

    benchmark(round_trip)
    assert session.stats.counters["region_cache_hits"] > 0


def test_serial_scan_shared_session(benchmark, apps):
    app = apps["mikou"]  # most labelled loops of the bench apps
    session = AnalysisSession(app.program, app.config).warm()
    benchmark(scan_all_loops, app.program, app.config, session=session)

