"""Differential testing of the scan execution paths on random programs.

The session pool's substrate bytes and the daemon's fleet scan are pure
plumbing: however the program-level artifacts reach a session — computed
in place, hydrated from the bytes the pool keeps, or built by a worker
process — the reports must be byte-identical (canonically: timings
zeroed, volatile counters dropped; see :mod:`repro.core.canonical`).
These properties pit every alternative path against the serial scan on
randomly generated programs with threads and nested labelled loops, and
pin the hydrated path against the Definition-1 ground-truth oracle
(:func:`repro.semantics.leaks.analyze_trace`) so a codec bug cannot
hide behind a matching-but-wrong pair.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec
from repro.core.scan import scan_all_loops
from repro.lang import parse_program
from repro.semantics.interp import RandomSchedule, execute
from repro.semantics.leaks import analyze_trace

from tests.conftest import pooled_session, report_pairs
from tests.properties.strategies import rich_loop_programs, store_only_programs

# Example count comes from the hypothesis profile (see conftest.py).
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Each example ships a new program to real worker processes; keep the
# count pinned low regardless of profile — the equivalence being checked
# is per-program, not per-schedule, so a handful of diverse programs
# suffices.
_PROCESS_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

REGION = RegionSpec("Main.main", "L")


def _canonical_scan(source, **kwargs):
    result = scan_all_loops(parse_program(source), DetectorConfig(), **kwargs)
    return result, result.to_json(canonical=True)


@_SETTINGS
@given(rich_loop_programs())
def test_cached_scan_matches_serial(source):
    """The pool's two scans of a text — the cold one that built the
    substrate, and one on a fresh parse hydrated from its bytes — produce
    the same canonical report."""
    cold = AnalysisSession(parse_program(source), DetectorConfig())
    _, cold_json = _canonical_scan(source, session=cold)
    warm = pooled_session(cold, parse_program(source))
    _, warm_json = _canonical_scan(source, session=warm)
    assert warm_json == cold_json


@_PROCESS_SETTINGS
@given(rich_loop_programs())
def test_process_parallel_scan_matches_serial(process_fleet, source):
    """A worker process runs the program whole from its source text;
    the result must not depend on which process did the checking."""
    serial, _ = _canonical_scan(source)
    assert process_fleet(source) == report_pairs(serial)


@_SETTINGS
@given(store_only_programs(), st.integers(min_value=0, max_value=2**16))
def test_cached_check_sound_wrt_oracle(source, seed):
    """The hydrated path keeps the soundness guarantee: in a loop
    without heap reads, every Definition-1 escaping site observed by the
    concrete interpreter is reported — by the fresh session that built
    the substrate and by a session hydrated from its bytes."""
    program = parse_program(source)
    trace = execute(program, schedule=RandomSchedule(seed=seed, max_trips=4))
    truth = analyze_trace(trace, "L")
    config = DetectorConfig(pivot=False)
    cold_session = AnalysisSession(program, config)
    cold_report = cold_session.check(REGION)
    warm_report = pooled_session(cold_session, parse_program(source)).check(
        REGION
    )
    assert warm_report.to_json(canonical=True) == cold_report.to_json(
        canonical=True
    )
    for site in truth.escaping_sites():
        assert site in set(cold_report.leaking_site_labels)
        assert site in set(warm_report.leaking_site_labels)
