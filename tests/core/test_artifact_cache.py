"""Tests for the substrate codec (src/repro/core/cache/): program
digests, the snapshot round trip and its mismatch checks, and every
corpus app through the session pool's path (dump, load, check)."""

import pytest

from repro.bench.apps import build_app, corpus_names
from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    hydrate_shared,
    program_digest,
    snapshot_shared,
)
from repro.core.cache.serialize import dump_shared, load_shared
from repro.core.detector import DetectorConfig
from repro.core.infer import infer_candidates
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec, candidate_loops
from repro.core.scan import scan_all_loops
from repro.errors import CacheError
from repro.lang import parse_program

from tests.conftest import pooled_session

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

    def test_key_ignores_region_level_knobs(self):
        # Region-level knobs are not part of the substrate key, so bytes
        # dumped under one config serve a config that differs only there.
        plain = DetectorConfig(pivot=False)
        tuned = DetectorConfig(pivot=True, context_depth=5)
        assert plain.substrate_key() == tuned.substrate_key()
        data = dump_shared(AnalysisSession(_program(), plain).warm().shared)
        program = _program()
        shared = load_shared(program, tuned, data)
        hydrated = AnalysisSession(program, tuned, shared=shared)
        assert hydrated.check(REGION).to_json(canonical=True) == (
            AnalysisSession(_program(), tuned).check(REGION).to_json(
                canonical=True
            )
        )


class TestSnapshotRoundTrip:
    def test_hydrated_session_reports_identically(self):
        config = DetectorConfig()
        warm = AnalysisSession(_program(), config).warm()
        data = dump_shared(warm.shared)
        fresh_program = _program()
        shared = load_shared(fresh_program, config, data)
        hydrated = AnalysisSession(fresh_program, config, shared=shared)
        assert hydrated.check(REGION).to_json(canonical=True) == warm.check(
            REGION
        ).to_json(canonical=True)

    def test_infer_catalog_round_trips(self):
        # The catalog is not stored with the substrate; a session hydrated
        # from the bytes re-infers it: same candidates, scores, counters.
        config = DetectorConfig()
        cold = AnalysisSession(_program(), config)
        computed = infer_candidates(cold.program, cold.callgraph)
        hydrated = pooled_session(cold, _program())
        catalog = infer_candidates(hydrated.program, hydrated.callgraph)
        assert [c.as_dict() for c in catalog.candidates] == [
            c.as_dict() for c in computed.candidates
        ]
        assert catalog.counters == computed.counters

    def test_uncomputed_catalog_stays_lazy(self):
        # Even after inference, a snapshot holds the substrate alone (no
        # catalog, no statement or store-edge index): a session hydrated
        # from the bytes infers afresh when asked.
        config = DetectorConfig()
        cold = AnalysisSession(_program(), config)
        infer_candidates(cold.program, cold.callgraph)
        snapshot = snapshot_shared(cold.shared)
        assert set(snapshot) == {
            "schema",
            "substrate_key",
            "program_digest",
            "callgraph",
            "andersen",
            "visible",
            "thread_sites",
            "thread_subclasses",
            "size_counts",
        }

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


@pytest.mark.parametrize("name", corpus_names())
def test_app_round_trips_through_substrate(name):
    """Every corpus app, cold and on a fresh parse hydrated from the cold
    session's substrate bytes, gives one canonical report: a scan of its
    labelled loops, or a check of its region when it has none."""
    app = build_app(name)
    cold_session = AnalysisSession(app.program, app.config)
    program = parse_program(app.source)
    if candidate_loops(app.program):
        cold = scan_all_loops(app.program, session=cold_session)
        warm = scan_all_loops(
            program, session=pooled_session(cold_session, program)
        )
    else:
        cold = cold_session.check(app.region)
        warm = pooled_session(cold_session, program).check(app.region)
    assert warm.to_json(canonical=True) == cold.to_json(canonical=True)
