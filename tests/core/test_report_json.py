"""Tests for JSON serialization of leak reports."""

import json

from repro.core.detector import LeakChecker
from repro.core.regions import RegionSpec
from repro.lang import parse_program
from tests.conftest import FIGURE1_SOURCE, SIMPLE_LEAK_SOURCE


def _report(source=SIMPLE_LEAK_SOURCE, region=None):
    prog = parse_program(source)
    return LeakChecker(prog).check(region or RegionSpec("Main.main", "L"))


class TestJson:
    def test_round_trips_through_json(self):
        data = json.loads(_report().to_json())
        assert data["findings"][0]["site"] == "item"

    def test_finding_fields(self):
        data = _report().as_dict()
        finding = data["findings"][0]
        assert finding["era"] == "T"
        assert finding["allocated_in"] == "Main.main"
        assert finding["redundant_edges"] == [{"base": "holder", "field": "slot"}]
        assert finding["type"] == "Item"

    def test_contexts_serialized_as_lists(self):
        report = _report(FIGURE1_SOURCE, RegionSpec("Main.main", "L1"))
        data = report.as_dict()
        contexts = data["findings"][0]["contexts"]
        assert contexts == [[]]  # allocated lexically in the loop

    def test_stats_included(self):
        data = _report().as_dict()
        assert "methods" in data["stats"]
        assert data["region"].startswith("loop L")

    def test_escape_stores_reference_methods(self):
        report = _report(FIGURE1_SOURCE, RegionSpec("Main.main", "L1"))
        stores = report.as_dict()["findings"][0]["escape_stores"]
        assert any(s["method"] == "Customer.addOrder" for s in stores)

    def test_empty_report_serializes(self):
        prog = parse_program(
            """entry Main.main;
            class Main { static method main() {
              loop L (*) { x = new Main @local; }
            } }"""
        )
        report = LeakChecker(prog).check(RegionSpec("Main.main", "L"))
        data = json.loads(report.to_json())
        assert data["findings"] == []

    def test_json_is_sorted_and_stable(self):
        a = _report().to_json()
        b = _report().to_json()
        # timings differ; strip the timing keys for stability comparison
        # (counters are deterministic and stay compared)
        da, db = json.loads(a), json.loads(b)
        for data in (da, db):
            data["stats"].pop("time_seconds")
            data["stats"].pop("stages")
        assert da == db
