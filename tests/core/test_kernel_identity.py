"""Canonical byte-identity of the flat kernel against the legacy solver.

The ``REPRO_PTA_KERNEL`` escape hatch only earns its keep if switching
kernels is observationally invisible: the canonical scan JSON (timings
zeroed, volatile counters and kernel observability dropped — see
:mod:`repro.core.canonical`) must be byte-identical between
``legacy`` and ``flat`` no matter how the scan runs.  This module pins
that promise along every axis the ISSUE names:

* execution path — serial, and fanned out over the daemon's process
  fleet (workers inherit the kernel choice through the environment at
  fork time);
* artifact cache — cold (compute + save) and warm (hydrate), with the
  kind-tagged andersen snapshot round-tripping through disk;
* the eight bench-suite apps (the CI smoke invokes this module's
  ``TestBenchAppIdentity``).
"""

import os
import shutil
import tempfile

import pytest

from repro.bench.apps import build_app, corpus_names
from repro.core.cache.store import ArtifactCache
from repro.core.detector import DetectorConfig
from repro.core.scan import scan_all_loops
from repro.core.summaries import SUMMARIES_ENV
from repro.lang import parse_program
from repro.pta.kernel import KERNEL_ENV

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    reg = new Registry @reg;
    loop FILL (*) {
      item = new Item @fill_item;
      reg.slot = item;
      cur = reg.slot;
      cur.next = item;
    }
    loop DRAIN (*) {
      got = reg.slot;
      tmp = got.next;
      reg.slot = tmp;
    }
    loop IDLE (*) {
      scratch = new Item @idle_item;
    }
  }
}
class Registry { field slot; }
class Item { field next; }
"""


def _scan_json(kernel, monkeypatch, summaries=None, fleets=None, **kwargs):
    """Canonical scan JSON under ``kernel``/``summaries``: serial, or
    through the process fleet ``fleets`` hands out for that environment."""
    monkeypatch.setenv(KERNEL_ENV, kernel)
    if summaries is not None:
        monkeypatch.setenv(SUMMARIES_ENV, summaries)
    if fleets is not None:
        result = fleets().scan_program(parse_program(_SOURCE))
    else:
        result = scan_all_loops(
            parse_program(_SOURCE), DetectorConfig(), **kwargs
        )
    return result, result.to_json(canonical=True)


@pytest.fixture(scope="module")
def fleets():
    """One two-worker process fleet per (kernel, summaries) environment,
    its workers forked while that environment is set: they read both
    switches from the environment they inherit at fork time."""
    from repro.server.coordinator import Coordinator

    made = {}

    def fleet():
        key = (os.environ.get(KERNEL_ENV), os.environ.get(SUMMARIES_ENV))
        if key not in made:
            made[key] = Coordinator(2, transport="process")
            made[key].transport.warm()
        return made[key]

    yield fleet
    for coordinator in made.values():
        coordinator.close()


@pytest.fixture()
def reference(monkeypatch):
    """Serial legacy-kernel canonical JSON — the comparison baseline."""
    _, text = _scan_json("legacy", monkeypatch)
    return text


class TestBackendIdentity:
    @pytest.mark.parametrize("kernel", ["legacy", "flat"])
    def test_serial(self, kernel, monkeypatch, reference):
        _, text = _scan_json(kernel, monkeypatch)
        assert text == reference

    @pytest.mark.parametrize("kernel", ["legacy", "flat"])
    def test_process_backend(self, kernel, monkeypatch, reference, fleets):
        # Forked workers inherit os.environ, so the monkeypatched kernel
        # selection governs the pool too; the workers attach the
        # shared-memory snapshot under either kernel.
        _, text = _scan_json(kernel, monkeypatch, fleets=fleets)
        assert text == reference


class TestCacheIdentity:
    @pytest.mark.parametrize("kernel", ["legacy", "flat"])
    def test_cold_and_warm_cache(self, kernel, monkeypatch, reference):
        root = tempfile.mkdtemp(prefix="repro-kernel-cache-")
        try:
            cold, cold_text = _scan_json(
                kernel, monkeypatch, cache=ArtifactCache(root)
            )
            warm, warm_text = _scan_json(
                kernel, monkeypatch, cache=ArtifactCache(root)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert cold_text == reference
        assert warm_text == reference
        assert cold.cache_counters["artifact_cache_saves"] == 1
        assert warm.cache_counters["artifact_cache_hits"] == 1

    def test_flat_reads_legacy_written_snapshot(self, monkeypatch, reference):
        """The cache key deliberately ignores ``REPRO_PTA_KERNEL`` (the
        kernels are result-equivalent), so a snapshot written under one
        kernel hydrates under the other and still canonicalizes to the
        same bytes."""
        root = tempfile.mkdtemp(prefix="repro-kernel-cross-")
        try:
            _scan_json("legacy", monkeypatch, cache=ArtifactCache(root))
            warm, warm_text = _scan_json(
                "flat", monkeypatch, cache=ArtifactCache(root)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert warm_text == reference
        assert warm.cache_counters["artifact_cache_hits"] == 1


class TestSummaryModeIdentity:
    """``REPRO_PTA_SUMMARIES`` on/off byte identity.

    Summary mode replaces the whole-program solve with an escape
    pre-filter plus scoped sub-PAG solves, so its canonical output must
    match the reference along every axis the kernel identity is pinned
    on: both kernels, serial and fanned-out scans, and both cache
    temperatures (process workers inherit the mode from the
    environment at fork time, exactly like the kernel choice)."""

    @pytest.mark.parametrize("mode", ["on", "off"])
    @pytest.mark.parametrize("kernel", ["legacy", "flat"])
    def test_serial(self, kernel, mode, monkeypatch, reference):
        _, text = _scan_json(kernel, monkeypatch, summaries=mode)
        assert text == reference

    @pytest.mark.parametrize("mode", ["on", "off"])
    @pytest.mark.parametrize("kernel", ["legacy", "flat"])
    def test_process_backend(
        self, kernel, mode, monkeypatch, reference, fleets
    ):
        _, text = _scan_json(
            kernel, monkeypatch, summaries=mode, fleets=fleets
        )
        assert text == reference

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_cold_and_warm_cache(self, mode, monkeypatch, reference):
        root = tempfile.mkdtemp(prefix="repro-summary-cache-")
        try:
            _, cold_text = _scan_json(
                "flat", monkeypatch, summaries=mode, cache=ArtifactCache(root)
            )
            warm, warm_text = _scan_json(
                "flat", monkeypatch, summaries=mode, cache=ArtifactCache(root)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert cold_text == reference
        assert warm_text == reference
        assert warm.cache_counters["artifact_cache_hits"] == 1

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_app_identical_across_summary_modes(self, name, monkeypatch):
        model = build_app(name)
        config = model.config or DetectorConfig()

        monkeypatch.setenv(SUMMARIES_ENV, "off")
        off = scan_all_loops(model.program, config).to_json(canonical=True)

        monkeypatch.setenv(SUMMARIES_ENV, "on")
        on = scan_all_loops(model.program, config).to_json(canonical=True)

        assert on == off


class TestBenchAppIdentity:
    """Flat-vs-legacy byte identity on the full bench corpus (the
    paper's eight subjects plus the retention-idiom apps).

    This is the CI smoke target: ``pytest tests/core/test_kernel_identity.py
    -k bench``.  Every app in :func:`repro.bench.apps.corpus_names` must
    scan to identical canonical JSON under both kernels.
    """

    @pytest.mark.parametrize("name", corpus_names())
    def test_app_scans_identically_under_both_kernels(self, name, monkeypatch):
        model = build_app(name)
        config = model.config or DetectorConfig()

        monkeypatch.setenv(KERNEL_ENV, "legacy")
        legacy = scan_all_loops(model.program, config).to_json(canonical=True)

        monkeypatch.setenv(KERNEL_ENV, "flat")
        flat = scan_all_loops(model.program, config).to_json(canonical=True)

        assert flat == legacy
