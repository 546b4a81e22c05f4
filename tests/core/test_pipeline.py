"""Tests for the staged pipeline: session caching, stats, fleet scan."""

import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import LeakChecker
from repro.core.pipeline import (
    AnalysisSession,
    PipelineStats,
    stats_from_report,
)
from repro.core.regions import RegionSpec, candidate_loops
from repro.core.scan import scan_all_loops
from repro.errors import AnalysisError
from repro.lang import parse_program
from tests.conftest import (
    FIGURE1_SOURCE,
    MERGED_CALLS_SOURCE,
    SIMPLE_LEAK_SOURCE,
    report_pairs,
)

#: Stage names every uncached default-config run must time.
CORE_STAGES = (
    "contexts",
    "region_stmts",
    "store_edges",
    "flows_out",
    "flows_in",
    "matching",
    "pivot",
)


def _fingerprint(report):
    return [
        (
            f.site.label,
            f.era,
            tuple(f.redundant_edges),
            tuple(tuple(c.sites) for c in f.creation_contexts),
            tuple(s.uid for s in f.escape_stores),
            tuple(f.notes),
        )
        for f in report.findings
    ]


class TestPipelineStats:
    def test_stage_timer_accumulates(self):
        stats = PipelineStats()
        with stats.stage("x"):
            pass
        first = stats.stages["x"]
        with stats.stage("x"):
            pass
        assert stats.stages["x"] >= first

    def test_base_counters_present_from_birth(self):
        stats = PipelineStats()
        assert stats.counters["cfl_queries"] == 0
        assert stats.counters["budget_exhaustions"] == 0
        assert stats.counters["andersen_fallbacks"] == 0

    def test_merge_sums(self):
        a, b = PipelineStats(), PipelineStats()
        a.count("store_edges", 2)
        b.count("store_edges", 3)
        b.stages["contexts"] = 0.5
        a.merge(b)
        assert a.counters["store_edges"] == 5
        assert a.stages["contexts"] == 0.5

    def test_round_trip_through_report_dict(self):
        stats = PipelineStats()
        stats.count("flow_pairs_out", 7)
        with stats.stage("matching"):
            pass
        rebuilt = stats_from_report(stats.as_dict())
        assert rebuilt.counters["flow_pairs_out"] == 7
        assert "matching" in rebuilt.stages

    def test_format_mentions_stages_and_counters(self):
        stats = PipelineStats()
        with stats.stage("contexts"):
            pass
        stats.count("cfl_queries", 4)
        text = stats.format()
        assert "contexts" in text
        assert "cfl_queries" in text

    def test_tolerates_pre_pipeline_report_stats(self):
        rebuilt = stats_from_report({"methods": 3})
        assert rebuilt.stages == {}


class TestReportStats:
    def test_every_run_reports_stage_timings(self, simple_leak):
        report = AnalysisSession(simple_leak).check(
            RegionSpec("Main.main", "L")
        )
        for stage in CORE_STAGES:
            assert stage in report.stats["stages"], stage

    def test_every_run_reports_cfl_counters(self, simple_leak):
        report = AnalysisSession(simple_leak).check(
            RegionSpec("Main.main", "L")
        )
        counters = report.stats["counters"]
        for key in ("cfl_queries", "budget_exhaustions", "andersen_fallbacks"):
            assert key in counters, key

    def test_demand_driven_counts_cfl_queries(self, simple_leak):
        session = AnalysisSession(
            simple_leak, DetectorConfig(demand_driven=True)
        )
        report = session.check(RegionSpec("Main.main", "L"))
        assert report.stats["counters"]["cfl_queries"] > 0

    def test_tiny_budget_counts_fallbacks(self, figure1):
        session = AnalysisSession(
            figure1, DetectorConfig(demand_driven=True, budget=1)
        )
        report = session.check(RegionSpec("Main.main", "L1"))
        counters = report.stats["counters"]
        assert counters["budget_exhaustions"] > 0
        assert counters["andersen_fallbacks"] == counters["budget_exhaustions"]

    def test_config_fully_recorded(self, simple_leak):
        report = AnalysisSession(simple_leak).check(
            RegionSpec("Main.main", "L")
        )
        assert report.stats["budget"] == 100_000
        assert report.stats["max_contexts_per_site"] == 64

    def test_describe_covers_every_knob(self):
        config = DetectorConfig(budget=7, max_contexts_per_site=3)
        described = config.describe()
        assert described["budget"] == 7
        assert described["max_contexts_per_site"] == 3


class TestSessionCaching:
    def test_repeat_check_hits_region_cache(self, simple_leak):
        session = AnalysisSession(simple_leak)
        spec = RegionSpec("Main.main", "L")
        first = session.check(spec)
        before = session.points_to.totals.get("var_queries", 0)
        second = session.check(spec)
        after = session.points_to.totals.get("var_queries", 0)
        assert session.stats.counters["region_cache_hits"] == 1
        assert after == before  # no points-to work on the cached run
        assert _fingerprint(first) == _fingerprint(second)

    def test_distinct_spec_objects_share_cache_entry(self, simple_leak):
        session = AnalysisSession(simple_leak)
        session.check(RegionSpec("Main.main", "L"))
        session.check(RegionSpec("Main.main", "L"))
        assert session.stats.counters["region_cache_hits"] == 1

    def test_reuse_off_matches_reuse_on(self, figure1):
        spec = RegionSpec("Main.main", "L1")
        cached = AnalysisSession(figure1).check(spec)
        rebuilt = AnalysisSession(figure1, reuse_artifacts=False).check(spec)
        assert _fingerprint(cached) == _fingerprint(rebuilt)

    def test_store_edges_resolved_once_across_regions(self, figure1):
        session = AnalysisSession(figure1)
        session.check(RegionSpec("Main.main", "L1"))
        session.check(RegionSpec("Transaction.txInit", "LC"))
        report = session.check(RegionSpec("Transaction.txInit", "LC"))
        # cached rerun: edges come from the index, not points-to
        counters = report.stats["counters"]
        assert counters.get("store_edge_cache_misses", 0) >= 0
        assert session.stats.counters["region_cache_hits"] == 1

    def test_flow_relations_uses_cached_artifacts(self, figure1):
        session = AnalysisSession(figure1)
        spec = RegionSpec("Main.main", "L1")
        report = session.check(spec)
        inside, outs, ins = session.flow_relations(spec)
        assert session.stats.counters["region_cache_hits"] == 1
        assert {p.site for p in outs} >= set(report.leaking_site_labels)

    def test_warm_precomputes_lazies(self, simple_leak):
        session = AnalysisSession(simple_leak).warm()
        assert session.shared._size_counts is not None


class TestDeadlineMemo:
    """An answer the deadline degraded is never memoized, so the next
    check without a deadline is exact."""

    CONFIG = DetectorConfig(demand_driven=True)

    def _degraded(self):
        from repro import Analyzer

        analyzer = Analyzer(parse_program(MERGED_CALLS_SOURCE), self.CONFIG)
        report = analyzer.analyze("Main.main:L", deadline_ms=0)
        assert report.leaking_site_labels == ["item"]
        assert report.stats["counters"]["deadline_expiries"] > 0
        return analyzer

    def test_exact_answer_reports_no_leak(self):
        session = AnalysisSession(
            parse_program(MERGED_CALLS_SOURCE), self.CONFIG
        )
        assert session.check(RegionSpec("Main.main", "L")).findings == []

    def test_repeat_after_degraded_check_is_exact(self):
        analyzer = self._degraded()
        report = analyzer.analyze("Main.main:L")
        assert report.leaking_site_labels == []
        assert report.stats["counters"].get("deadline_expiries", 0) == 0
        assert analyzer.analyze().leaking_sites() == []

    def test_fork_after_degraded_check_is_exact(self):
        analyzer = self._degraded()
        sibling = analyzer.session.fork(self.CONFIG)
        assert sibling.shared is analyzer.session.shared
        report = sibling.check(RegionSpec("Main.main", "L"))
        assert report.leaking_site_labels == []


class TestFork:
    def test_fork_shares_substrate_for_compatible_config(self, figure1):
        base = AnalysisSession(figure1)
        sibling = base.fork(DetectorConfig(pivot=False))
        assert sibling.shared is base.shared
        assert sibling.callgraph is base.callgraph

    def test_fork_rebuilds_for_new_substrate(self, figure1):
        base = AnalysisSession(figure1)
        sibling = base.fork(DetectorConfig(callgraph="cha"))
        assert sibling.shared is not base.shared

    def test_incompatible_shared_rejected(self, figure1):
        base = AnalysisSession(figure1)
        with pytest.raises(AnalysisError):
            AnalysisSession(
                figure1, DetectorConfig(callgraph="cha"), shared=base.shared
            )

    def test_foreign_program_rejected(self, figure1, simple_leak):
        base = AnalysisSession(figure1)
        with pytest.raises(AnalysisError):
            AnalysisSession(simple_leak, shared=base.shared)

    def test_forked_results_differ_by_config_only(self, figure1):
        base = AnalysisSession(figure1)
        sibling = base.fork(DetectorConfig(pivot=False))
        spec = RegionSpec("Main.main", "L1")
        with_pivot = set(base.check(spec).leaking_site_labels)
        without = set(sibling.check(spec).leaking_site_labels)
        assert with_pivot <= without


class TestParallel:
    """The fleet scan (the daemon's ``/analyze-batch`` path) against the
    serial scan."""

    def test_parallel_scan_identical_to_serial(self, figure1, process_fleet):
        serial = scan_all_loops(figure1)
        assert process_fleet(FIGURE1_SOURCE) == report_pairs(serial)

    def test_parallel_helper_preserves_spec_order(self, figure1, process_fleet):
        regions = [s.text() for s in reversed(candidate_loops(figure1))]
        result = process_fleet(FIGURE1_SOURCE, regions)
        assert [region for region, _ in result] == regions

    def test_empty_spec_list(self, figure1, process_fleet):
        assert process_fleet(FIGURE1_SOURCE, []) == []


class TestFacade:
    def test_leakchecker_rides_on_session(self, simple_leak):
        checker = LeakChecker(simple_leak)
        assert checker.callgraph is checker.session.callgraph
        assert checker.points_to is checker.session.points_to

    def test_shared_session_across_checkers(self, simple_leak):
        session = AnalysisSession(simple_leak)
        a = LeakChecker(simple_leak, session=session)
        b = LeakChecker(simple_leak, session=session)
        spec = RegionSpec("Main.main", "L")
        assert _fingerprint(a.check(spec)) == _fingerprint(b.check(spec))
        assert session.stats.counters["region_cache_hits"] == 1

    def test_scan_accepts_prebuilt_session(self):
        program = parse_program(FIGURE1_SOURCE)
        session = AnalysisSession(program)
        result = scan_all_loops(program, session=session)
        assert len(result.entries) == 2
        rescan = scan_all_loops(program, session=session)
        assert session.stats.counters["region_cache_hits"] == len(
            rescan.entries
        )


class TestScanResultJson:
    def test_scan_as_dict_shape(self):
        program = parse_program(SIMPLE_LEAK_SOURCE)
        data = scan_all_loops(program).as_dict()
        assert data["total_findings"] == 1
        assert data["leaking_sites"] == ["item"]
        assert data["loops"][0]["method"] == "Main.main"
        assert "stages" in data["profile"]
        assert "cfl_queries" in data["profile"]["counters"]

    def test_scan_to_json_round_trips(self):
        import json

        program = parse_program(SIMPLE_LEAK_SOURCE)
        data = json.loads(scan_all_loops(program).to_json())
        assert data["loops"][0]["report"]["findings"][0]["site"] == "item"

    def test_aggregate_stats_sums_loops(self):
        program = parse_program(FIGURE1_SOURCE)
        result = scan_all_loops(program)
        total = result.aggregate_stats()
        per_loop = sum(
            r.stats["counters"]["region_statements"]
            for _s, r in result.entries
        )
        assert total.counters["region_statements"] == per_loop
