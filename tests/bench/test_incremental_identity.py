"""Cold-vs-incremental byte identity on the eight bench applications.

The incremental engine's contract is absolute: whatever tier it picks
(fast path, slow path, full fallback) the canonical JSON of a
``--changed-since`` scan equals the canonical JSON of a cold scan of
the same program — against serial and fleet-sharded cold baselines.
"""

import pytest

from repro.bench.apps import all_apps, app_names, build_app
from repro.core.incremental import changed_scan, snapshot_scan
from repro.core.pipeline.session import AnalysisSession
from repro.core.scan import scan_all_loops
from repro.lang import parse_program
from tests.conftest import report_pairs

APPS = app_names()


def _cold_and_snapshot(app):
    session = AnalysisSession(app.program, app.config)
    cold = scan_all_loops(app.program, session=session)
    payload = snapshot_scan(app.program, session.config, cold, session=session)
    return cold, payload


@pytest.mark.parametrize("name", APPS)
def test_incremental_matches_cold_serial(name):
    app = build_app(name)
    cold, payload = _cold_and_snapshot(app)
    reparsed = parse_program(app.source)
    result, outcome = changed_scan(reparsed, payload, config=app.config)
    assert result.to_json(canonical=True) == cold.to_json(canonical=True)
    # On an unchanged program every region is served — except under
    # model_threads (mikou), where serving is disabled wholesale.
    if app.config.model_threads:
        assert outcome.full_fallback
    else:
        assert not outcome.rechecked
        assert len(outcome.served) == len(result.entries)


@pytest.mark.parametrize("name", APPS)
def test_incremental_matches_parallel_cold(name, process_fleet):
    app = build_app(name)
    _cold, payload = _cold_and_snapshot(app)
    reparsed = parse_program(app.source)
    result, _outcome = changed_scan(reparsed, payload, config=app.config)
    fanned = process_fleet(app.source, config=app.config)
    assert report_pairs(result) == fanned


def test_incremental_matches_process_parallel_cold(process_fleet):
    # One program task per region on the module's workers: every region
    # of the subject with the most statements is checked by a cold
    # worker on its own.
    app = build_app("mysql-connector-j")
    _cold, payload = _cold_and_snapshot(app)
    result, _outcome = changed_scan(
        parse_program(app.source), payload, config=app.config
    )
    expected = report_pairs(result)
    assert expected
    for pair in expected:
        assert process_fleet(app.source, [pair[0]], config=app.config) == [pair]


def test_one_method_edit_fast_path_identity():
    app = build_app("mysql-connector-j")
    _cold, payload = _cold_and_snapshot(app)
    old = "    r = call MyFiller0.m0(x) @My_run;"
    new = "    y = x;\n    r = call MyFiller0.m0(y) @My_run;"
    assert old in app.source
    edited = parse_program(app.source.replace(old, new))
    result, outcome = changed_scan(edited, payload, config=app.config)
    assert outcome.fast_path
    assert outcome.dirty_methods == {"MyFiller0.warmup"}
    cold = scan_all_loops(edited, config=app.config)
    assert result.to_json(canonical=True) == cold.to_json(canonical=True)


def test_all_apps_build_consistent_snapshots():
    # Snapshot capture must not perturb the scan it records: writing a
    # snapshot and rescanning cold agree for every subject.
    for app in all_apps():
        session = AnalysisSession(app.program, app.config)
        cold = scan_all_loops(app.program, session=session)
        payload = snapshot_scan(app.program, session.config, cold, session=session)
        # eclipse-diff's region is a method, not a labelled loop, so its
        # loop scan is legitimately empty; the snapshot mirrors the scan.
        assert len(payload["regions"]) == len(cold.entries), app.name
        assert payload["program_digest"]
