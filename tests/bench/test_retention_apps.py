"""Retention-idiom corpus: expectations for the five new bench apps.

Three layers:

* **leaky variants** — each app reports exactly its documented root
  (kind included: the resource app must surface a ``resource-leak``);
* **precision/recall gate** — the balanced variants report *nothing*
  (zero false positives: ``precision_recall`` scores (1.0, 1.0) against
  an empty expectation), and the leaky variants score perfect
  precision/recall against their region-level ground truth;
* **output identity** — each leaky app's canonical scan JSON is
  byte-identical across serial and fanned-out scans and cold/warm
  artifact cache (the golden corpus stores one file per app, so every
  execution mode must reproduce it).
"""

import shutil
import tempfile

import pytest

from repro.bench.apps import build_retention, retention_names
from repro.bench.metrics import precision_recall, run_app
from repro.core.api import Analyzer
from repro.core.regions import region_text
from repro.core.report import HEAP_LEAK, RESOURCE_LEAK
from repro.core.scan import scan_all_loops

#: app -> (expected leaking site, expected finding kind, expected ERA)
_EXPECTED = {
    "obsreg": ("click_listener", HEAP_LEAK, "T"),
    "memocache": ("memo_key", HEAP_LEAK, "T"),
    "closurecap": ("completion_cb", HEAP_LEAK, "T"),
    "staticacc": ("sample_obj", HEAP_LEAK, "T"),
    "resleak": ("file_stream", RESOURCE_LEAK, "c"),
}


class TestLeakyVariants:
    @pytest.mark.parametrize("name", retention_names())
    def test_reports_exactly_the_documented_root(self, name):
        app = build_retention(name, variant="leaky")
        _, report = run_app(app)
        site, kind, era = _EXPECTED[name]
        assert [(f.site.label, f.kind, f.era) for f in report.findings] == [
            (site, kind, era)
        ]

    @pytest.mark.parametrize("name", retention_names())
    def test_perfect_precision_and_recall(self, name):
        app = build_retention(name, variant="leaky")
        _, report = run_app(app)
        assert precision_recall(app, report) == (1.0, 1.0)

    def test_resource_finding_shape(self):
        """The resource finding carries acquire evidence and a stable
        kind-suffixed fingerprint."""
        app = build_retention("resleak", variant="leaky")
        _, report = run_app(app)
        (finding,) = report.findings
        assert finding.kind == RESOURCE_LEAK
        assert any("never released" in note for note in finding.notes)
        assert finding.escape_stores, "acquire invocation missing"
        region = region_text(app.region)
        assert finding.fingerprint(region) == (
            "Poller.pollLoop:L1|file_stream||resource-leak"
        )

    def test_resource_counters_recorded(self):
        app = build_retention("resleak", variant="leaky")
        _, report = run_app(app)
        counters = report.stats["counters"]
        assert counters["resource_sites"] == 2
        assert counters["resource_acquired"] == 2
        assert counters["resource_released"] == 1
        assert counters["resource_leaks"] == 1


class TestBalancedGate:
    """Zero false positives on the balanced-release variants."""

    @pytest.mark.parametrize("name", retention_names())
    def test_balanced_variant_reports_nothing(self, name):
        app = build_retention(name, variant="balanced")
        _, report = run_app(app)
        assert report.findings == [], (
            "balanced %s variant produced false positives: %s"
            % (name, report.leaking_site_labels)
        )

    @pytest.mark.parametrize("name", retention_names())
    def test_balanced_gate_scores_perfectly(self, name):
        app = build_retention(name, variant="balanced")
        _, report = run_app(app)
        assert precision_recall(app, report) == (1.0, 1.0)


class TestRegionTruth:
    """Region-level ground-truth keys (the per-loop classification)."""

    def test_region_entry_drives_classification(self):
        app = build_retention("obsreg", variant="leaky")
        region = region_text(app.region)
        assert app.truth.leaks_for_region(region) == {"click_listener"}
        assert app.truth.expected_for_region(region) == {"click_listener"}
        # Site-level fallback is empty for these models: the region
        # entry is the single source of truth.
        assert app.truth.leak_sites == frozenset()
        assert app.truth.expected_report() == {"click_listener"}

    def test_unanticipated_site_still_raises(self):
        app = build_retention("obsreg", variant="leaky")
        region = region_text(app.region)

        class _Ctx:
            sites = ()

        with pytest.raises(KeyError):
            app.truth.classify("never_modeled", _Ctx(), region=region)

    def test_unknown_region_falls_back_to_site_level(self):
        app = build_retention("obsreg", variant="leaky")

        class _Ctx:
            sites = ()

        with pytest.raises(KeyError):
            app.truth.classify("click_listener", _Ctx(), region="Other.m:L9")


class TestExecutionModeIdentity:
    """Canonical scan output is byte-identical between serial and
    fanned-out scans and across cache temperature for every retention
    app."""

    @pytest.mark.parametrize("name", retention_names())
    def test_parallel_matches_serial(self, name):
        app = build_retention(name, variant="leaky")
        serial = scan_all_loops(app.program, app.config).to_json(canonical=True)
        fanned = scan_all_loops(
            app.program, app.config, parallel=True, max_workers=2
        ).to_json(canonical=True)
        assert fanned == serial

    def test_process_backend_matches_serial(self):
        # The same fan-out reached through the public Analyzer facade.
        # One representative app keeps the process-pool cost bounded;
        # the toy-program matrix in test_kernel_identity covers the
        # fleet machinery itself.
        app = build_retention("resleak", variant="leaky")
        serial = scan_all_loops(app.program, app.config).to_json(canonical=True)
        pooled = Analyzer(app.program, app.config).analyze(
            parallel=True, max_workers=2
        ).to_json(canonical=True)
        assert pooled == serial

    @pytest.mark.parametrize("name", retention_names())
    def test_cold_and_warm_cache_match(self, name):
        from repro.core.cache.store import ArtifactCache

        app = build_retention(name, variant="leaky")
        serial = scan_all_loops(app.program, app.config).to_json(canonical=True)
        root = tempfile.mkdtemp(prefix="repro-retention-cache-")
        try:
            cold = scan_all_loops(
                app.program, app.config, cache=ArtifactCache(root)
            ).to_json(canonical=True)
            warm = scan_all_loops(
                app.program, app.config, cache=ArtifactCache(root)
            ).to_json(canonical=True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert cold == serial
        assert warm == serial
