"""Tests for leak report formatting and accounting."""

from repro.core.era import FUT, TOP
from repro.core.regions import RegionSpec
from repro.core.report import LeakFinding, LeakReport
from repro.ir.program import AllocSite
from repro.ir.stmts import NewStmt
from repro.ir.types import RefType
from repro.pta.context import EMPTY


def _site(label="s", method="Main.main"):
    stmt = NewStmt("x", RefType("C"), label)
    return AllocSite(label, RefType("C"), method, stmt)


def _finding(label="s", contexts=None, edges=(("b", "f"),)):
    return LeakFinding(
        _site(label),
        TOP,
        edges,
        contexts if contexts is not None else [EMPTY],
        notes=["check this"],
    )


class TestLeakFinding:
    def test_context_count_minimum_one(self):
        assert _finding(contexts=[]).context_count == 1

    def test_context_count(self):
        ctxs = [EMPTY.push("a"), EMPTY.push("b")]
        assert _finding(contexts=ctxs).context_count == 2

    def test_format_includes_core_facts(self):
        text = _finding().format()
        assert "leaking allocation site: s" in text
        assert "redundant reference: b.f" in text
        assert "note: check this" in text

    def test_format_contexts(self):
        text = _finding(contexts=[EMPTY.push("top")]).format()
        assert "created under: top" in text


class TestLeakReport:
    def _report(self):
        findings = [
            _finding("s1", contexts=[EMPTY.push("a"), EMPTY.push("b")]),
            _finding("s2"),
        ]
        return LeakReport(
            RegionSpec("Main.main", "L"), findings, {"methods": 3}
        )

    def test_site_labels(self):
        assert self._report().leaking_site_labels == ["s1", "s2"]

    def test_context_sensitive_count(self):
        assert self._report().context_sensitive_count == 3

    def test_format_header_and_stats(self):
        text = self._report().format()
        assert "loop L in Main.main" in text
        assert "methods: 3" in text

    def test_empty_report(self):
        report = LeakReport(RegionSpec("Main.main", "L"), [], {})
        assert "no leaks detected" in report.format()
        assert report.context_sensitive_count == 0
