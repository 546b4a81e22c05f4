"""Pipeline benchmarks: session-level artifact reuse and parallel scan.

The staged pipeline's selling point is that program-level artifacts
(call graph, points-to state, statement and store-edge indexes) are
built once per session instead of once per region check.  These
benchmarks measure that directly on the largest subject and keep the
parallel scan mode honest about overhead on small programs.
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


def test_parallel_scan_shared_session(benchmark, apps):
    app = apps["mikou"]
    session = AnalysisSession(app.program, app.config).warm()
    result = benchmark(
        scan_all_loops,
        app.program,
        app.config,
        parallel=True,
        max_workers=2,
        session=session,
    )
    assert len(result.entries) == 2


def test_parallel_check_all_bench_regions(benchmark, apps):
    """Cross-app sanity load: each app's region through the parallel
    scan on its own session."""

    def sweep():
        count = 0
        for app in apps.values():
            result = scan_all_loops(
                app.program,
                session=AnalysisSession(app.program, app.config),
                specs=[app.region],
                parallel=True,
                max_workers=2,
            )
            count += len(result.entries)
        return count

    assert benchmark(sweep) == len(apps)
