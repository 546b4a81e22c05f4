"""The deterministic tiling generator (:mod:`repro.bench.scale`)."""

import pytest

from repro.bench.scale import build_scaled
from repro.core.pipeline.session import AnalysisSession


class TestScaleGenerator:
    def test_deterministic(self):
        first = build_scaled("memocache", factor=3)
        second = build_scaled("memocache", factor=3)
        assert first.source == second.source
        assert [r.text() for r in first.regions] == [
            r.text() for r in second.regions
        ]

    def test_tiles_report_renamed_base_findings(self):
        app = build_scaled("memocache", factor=3)
        session = AnalysisSession(app.program, app.config)
        for region in app.regions:
            report = session.check(region)
            labels = {f.site.label for f in report.findings}
            assert labels == set(app.truth[region.text()])

    def test_balanced_variant_is_clean(self):
        app = build_scaled("memocache", factor=2, variant="balanced")
        session = AnalysisSession(app.program, app.config)
        for region in app.regions:
            assert not session.check(region).findings

    def test_rejects_bad_factor_and_variant(self):
        with pytest.raises(ValueError):
            build_scaled("memocache", factor=0)
        with pytest.raises(KeyError):
            build_scaled("log4j", variant="balanced")
