"""Tests for the persistent artifact cache (src/repro/core/cache/)."""

import os
import pickle

import pytest

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    cache_key,
    hydrate_shared,
    program_digest,
    snapshot_shared,
)
from repro.core.detector import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec
from repro.core.scan import scan_all_loops
from repro.errors import CacheError
from repro.lang import parse_program

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
    }
  }
}
class Holder { field slot; }
class Item { }
"""

REGION = RegionSpec("Main.main", "L")


def _program():
    return parse_program(_SOURCE)


class TestDigest:
    def test_digest_stable_across_parses(self):
        assert program_digest(_program()) == program_digest(_program())

    def test_digest_changes_with_program(self):
        other = parse_program(_SOURCE.replace("@item", "@thing"))
        assert program_digest(_program()) != program_digest(other)

    def test_key_covers_substrate_config(self):
        prog = _program()
        a = cache_key(prog, DetectorConfig())
        b = cache_key(prog, DetectorConfig(demand_driven=True))
        assert a != b

    def test_key_ignores_region_level_knobs(self):
        prog = _program()
        a = cache_key(prog, DetectorConfig(pivot=False))
        b = cache_key(prog, DetectorConfig(pivot=True, context_depth=5))
        assert a == b

    def test_key_covers_schema_version(self):
        prog = _program()
        config = DetectorConfig()
        assert cache_key(prog, config) != cache_key(
            prog, config, schema_version=CACHE_SCHEMA_VERSION + 1
        )


class TestSnapshotRoundTrip:
    def test_hydrated_session_reports_identically(self):
        config = DetectorConfig()
        warm = AnalysisSession(_program(), config).warm()
        snapshot = snapshot_shared(warm.shared)
        # Simulate the disk boundary.
        snapshot = pickle.loads(pickle.dumps(snapshot))
        fresh_program = _program()
        shared = hydrate_shared(fresh_program, config, snapshot)
        hydrated = AnalysisSession(fresh_program, config, shared=shared)
        assert hydrated.check(REGION).to_json(canonical=True) == warm.check(
            REGION
        ).to_json(canonical=True)

    def test_infer_catalog_round_trips(self):
        config = DetectorConfig()
        warm = AnalysisSession(_program(), config)
        computed = warm.infer_catalog()
        snapshot = pickle.loads(pickle.dumps(snapshot_shared(warm.shared)))
        fresh_program = _program()
        shared = hydrate_shared(fresh_program, config, snapshot)
        hydrated = AnalysisSession(fresh_program, config, shared=shared)
        # The catalog hydrates instead of recomputing: same candidates,
        # same scores/features/counters, zero inference time this run.
        assert shared._infer_catalog is not None
        catalog = hydrated.infer_catalog()
        assert catalog.seconds == 0.0
        assert [c.as_dict() for c in catalog.candidates] == [
            c.as_dict() for c in computed.candidates
        ]
        assert catalog.counters == computed.counters

    def test_uncomputed_catalog_stays_lazy(self):
        config = DetectorConfig()
        warm = AnalysisSession(_program(), config).warm()
        snapshot = snapshot_shared(warm.shared)
        assert snapshot["infer_catalog"] is None
        shared = hydrate_shared(_program(), config, snapshot)
        assert shared._infer_catalog is None

    def test_hydrate_rejects_schema_mismatch(self):
        config = DetectorConfig()
        snapshot = snapshot_shared(AnalysisSession(_program(), config).warm().shared)
        snapshot["schema"] = CACHE_SCHEMA_VERSION + 1
        with pytest.raises(CacheError):
            hydrate_shared(_program(), config, snapshot)

    def test_hydrate_rejects_substrate_mismatch(self):
        snapshot = snapshot_shared(
            AnalysisSession(_program(), DetectorConfig()).warm().shared
        )
        with pytest.raises(CacheError):
            hydrate_shared(_program(), DetectorConfig(demand_driven=True), snapshot)

    def test_hydrate_rejects_different_program(self):
        config = DetectorConfig()
        snapshot = snapshot_shared(AnalysisSession(_program(), config).warm().shared)
        other = parse_program(_SOURCE.replace("@item", "@thing"))
        with pytest.raises(CacheError):
            hydrate_shared(other, config, snapshot)


class TestStore:
    def test_miss_then_save_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        prog, config = _program(), DetectorConfig()
        assert cache.load(prog, config) is None
        cache.save(prog, config, AnalysisSession(prog, config).warm().shared)
        assert cache.load(_program(), config) is not None
        assert cache.stats == {
            "artifact_cache_hits": 1,
            "artifact_cache_misses": 1,
            "artifact_cache_saves": 1,
            "artifact_cache_evictions": 0,
        }

    def test_corrupt_entry_evicted_not_raised(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        prog, config = _program(), DetectorConfig()
        cache.save(prog, config, AnalysisSession(prog, config).warm().shared)
        path = cache.path_for(prog, config)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load(prog, config) is None
        assert cache.stats["artifact_cache_evictions"] == 1
        assert not os.path.exists(path)
        # The next scan recomputes and refills the entry.
        result = scan_all_loops(prog, config, cache=cache)
        assert result.cache_counters["artifact_cache_saves"] == 2

    def test_stale_schema_entry_treated_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        prog, config = _program(), DetectorConfig()
        snapshot = snapshot_shared(AnalysisSession(prog, config).warm().shared)
        snapshot["schema"] = CACHE_SCHEMA_VERSION + 1
        path = cache.path_for(prog, config)
        os.makedirs(cache.root, exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(snapshot, handle)
        assert cache.load(prog, config) is None
        assert cache.stats["artifact_cache_evictions"] == 1

    def test_program_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        config = DetectorConfig()
        prog = _program()
        cache.save(prog, config, AnalysisSession(prog, config).warm().shared)
        edited = parse_program(_SOURCE.replace("@item", "@thing"))
        assert cache.load(edited, config) is None
        assert len(cache.entries()) == 1  # old entry untouched, just unused

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        prog, config = _program(), DetectorConfig()
        cache.save(prog, config, AnalysisSession(prog, config).warm().shared)
        assert len(cache.entries()) == 1
        cache.clear()
        assert cache.entries() == []

    def test_unwritable_root_raises_cache_error(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should go")
        cache = ArtifactCache(blocked / "sub")
        prog, config = _program(), DetectorConfig()
        with pytest.raises(CacheError):
            cache.save(prog, config, AnalysisSession(prog, config).warm().shared)


class TestSessionIntegration:
    def test_scan_cold_then_warm(self, tmp_path):
        prog, config = _program(), DetectorConfig()
        cold = scan_all_loops(prog, config, cache=ArtifactCache(tmp_path))
        warm = scan_all_loops(_program(), config, cache=ArtifactCache(tmp_path))
        assert cold.to_json(canonical=True) == warm.to_json(canonical=True)
        assert cold.cache_counters["artifact_cache_misses"] == 1
        assert cold.cache_counters["artifact_cache_saves"] == 1
        assert warm.cache_counters["artifact_cache_hits"] == 1
        # A hydrated session does not re-persist what it just read.
        assert warm.cache_counters["artifact_cache_saves"] == 0

    def test_hydrated_flag(self, tmp_path):
        prog, config = _program(), DetectorConfig()
        cache = ArtifactCache(tmp_path)
        first = AnalysisSession(prog, config, cache=cache)
        assert not first.hydrated_from_cache
        first.persist()
        second = AnalysisSession(_program(), config, cache=cache)
        assert second.hydrated_from_cache

    def test_cache_counters_surface_in_profile(self, tmp_path):
        prog, config = _program(), DetectorConfig()
        scan_all_loops(prog, config, cache=ArtifactCache(tmp_path))
        warm = scan_all_loops(_program(), config, cache=ArtifactCache(tmp_path))
        profile = warm.aggregate_stats().as_dict()
        assert profile["counters"]["artifact_cache_hits"] == 1
