"""Pipeline-equivalence tests across the benchmark applications.

The staged pipeline must be a pure refactoring of the seed detector:
session-cached re-checks, cache-bypassing rebuilds, and the fleet scan
path (the daemon's ``/analyze-batch``) must all produce reports
identical to a fresh serial run — same findings, same ERAs, same
unmatched keys — on every bench app.
"""

import pytest

from repro.bench.apps import all_apps
from repro.core.pipeline import AnalysisSession
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import scan_all_loops
from tests.conftest import canonical_pairs, report_pairs

APPS = {app.name: app for app in all_apps()}


def _report_key(report):
    """Everything observable about a report except timings."""
    findings = tuple(
        (
            f.site.label,
            f.era,
            tuple(f.redundant_edges),
            tuple(tuple(c.sites) for c in f.creation_contexts),
            tuple(s.uid for s in f.escape_stores),
            tuple(f.notes),
        )
        for f in report.findings
    )
    counters = dict(report.stats["counters"])
    # Drop cache-dependent bookkeeping: which run pays a points-to query
    # depends on what an earlier (or concurrent) region already cached,
    # so query and hit counts vary while results stay identical.
    for volatile in (
        "store_edge_cache_hits",
        "store_edge_cache_misses",
        "cfl_memo_hits",
        "region_cache_hits",
        "var_queries",
        "heap_queries",
        "cfl_queries",
        "budget_exhaustions",
        "andersen_fallbacks",
    ):
        counters.pop(volatile, None)
    return (
        findings,
        tuple(report.leaking_site_labels),
        report.stats["loop_objects"],
        report.stats["loop_alloc_sites"],
        counters,
    )


@pytest.mark.parametrize("name", sorted(APPS))
def test_session_cached_rerun_is_identical(name):
    app = APPS[name]
    session = AnalysisSession(app.program, app.config)
    fresh = session.check(app.region)
    cached = session.check(app.region)
    assert session.stats.counters["region_cache_hits"] == 1
    assert _report_key(cached) == _report_key(fresh)


@pytest.mark.parametrize("name", sorted(APPS))
def test_rebuild_path_matches_cached_path(name):
    """reuse_artifacts=False recomputes everything per region, exactly
    like the seed detector — results must not depend on the caches."""
    app = APPS[name]
    cached = AnalysisSession(app.program, app.config).check(app.region)
    rebuilt = AnalysisSession(
        app.program, app.config, reuse_artifacts=False
    ).check(app.region)
    assert _report_key(rebuilt) == _report_key(cached)


@pytest.mark.parametrize("name", sorted(APPS))
def test_parallel_scan_matches_serial_scan(name, process_fleet):
    app = APPS[name]
    if not candidate_loops(app.program):
        pytest.skip("%s has no labelled loops to scan" % name)
    serial = scan_all_loops(app.program, app.config)
    parallel = process_fleet(app.source, config=app.config)
    assert parallel == report_pairs(serial)


@pytest.mark.parametrize("name", sorted(APPS))
def test_parallel_region_check_matches_direct_check(name, process_fleet):
    """Region checks fanned out over worker processes equal direct
    session checks even for component regions (no labelled loops)."""
    app = APPS[name]
    direct = AnalysisSession(app.program, app.config).check(app.region)
    region = region_text(app.region)
    result = process_fleet(app.source, [region, region], config=app.config)
    expected = canonical_pairs([(region, direct.as_dict())])
    assert result == expected * 2
