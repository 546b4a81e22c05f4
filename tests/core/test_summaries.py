"""Unit tests for the compositional summary subsystem.

Covers the escape lattice classifications, captured-site enumeration,
SCC-ordered composition, incremental refresh granularity, the summary
payload's trip through the shared-artifact snapshot, the enriched
:class:`RegionCheckError` context, and the deterministic scale
generator."""

import pytest

from repro.bench.scale import build_scaled
from repro.callgraph.rta import build_rta
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec
from repro.core.summaries import (
    CAPTURED,
    VIA_FIELD,
    VIA_GLOBAL,
    VIA_RETURN,
    ProgramSummaries,
    SUMMARIES_ENV,
    summaries_enabled,
)
from repro.errors import RegionCheckError
from repro.lang import parse_program


def _summaries(source):
    program = parse_program(source)
    return ProgramSummaries.build(program, build_rta(program)), program


_LATTICE_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    kept = new Obj @cap_site;
    box = new Box @box_site;
    tmp = new Obj @field_site;
    box.slot = tmp;
    ret = call Maker.make() @mk;
    glob = call Maker.makeBox() @mkb;
    esc = new Obj @glob_site;
    glob.slot = esc;
    handoff = new Obj @callee_site;
    call Sink.keep(handoff) @snk;
  }
}
class Maker {
  static method make() {
    made = new Obj @ret_site;
    return made;
  }
  static method makeBox() {
    b = new Box @made_box;
    return b;
  }
}
class Sink {
  static method keep(x) {
    s = new Box @sink_box;
    s.slot = x;
  }
}
class Box { field slot; }
class Obj { field pad; }
"""


class TestEscapeLattice:
    def test_captured_site_has_bottom_level(self):
        summaries, _ = _summaries(_LATTICE_SOURCE)
        level, stored, returned = summaries.site_info("cap_site")
        assert (level, stored, returned) == (CAPTURED, False, False)
        assert "cap_site" in summaries.captured_sites()

    def test_returned_site_reaches_via_return(self):
        summaries, _ = _summaries(_LATTICE_SOURCE)
        level, _stored, returned = summaries.site_info("ret_site")
        assert returned
        assert level >= VIA_RETURN
        assert "ret_site" not in summaries.captured_sites()

    def test_stored_site_reaches_via_field(self):
        summaries, _ = _summaries(_LATTICE_SOURCE)
        level, stored, _returned = summaries.site_info("field_site")
        assert stored
        assert level >= VIA_FIELD
        assert "field_site" not in summaries.captured_sites()

    def test_store_into_escaping_base_reaches_via_global(self):
        summaries, _ = _summaries(_LATTICE_SOURCE)
        level, stored, _returned = summaries.site_info("glob_site")
        assert stored
        assert level == VIA_GLOBAL

    def test_escape_through_callee_store(self):
        """A site that only escapes inside a callee (``Sink.keep`` stores
        its parameter) must still be marked stored at the caller."""
        summaries, _ = _summaries(_LATTICE_SOURCE)
        _level, stored, _returned = summaries.site_info("callee_site")
        assert stored
        assert "callee_site" not in summaries.captured_sites()

    def test_loads_through_parameters_stay_sound(self):
        """Storing a value loaded from a parameter's field must not
        leave the stored flag unset just because the caller populated
        the field in another method (the ``HashMap.put`` shape)."""
        source = """
entry Main.main;
class Main {
  static method main() {
    m = new Holder @holder;
    call m.init() @c1;
    call m.add() @c2;
  }
}
class Holder {
  field table;
  method init() {
    t = new Box @table_site;
    this.table = t;
  }
  method add() {
    e = new Obj @entry_site;
    t = this.table;
    t.slot = e;
  }
}
class Box { field slot; }
class Obj { field pad; }
"""
        summaries, _ = _summaries(source)
        _level, stored, _returned = summaries.site_info("entry_site")
        assert stored
        assert "entry_site" not in summaries.captured_sites()


class TestCompositionOrder:
    def test_mutual_recursion_reaches_fixpoint(self):
        source = """
entry Main.main;
class Main {
  static method main() {
    v = call Even.step() @root;
  }
}
class Even {
  static method step() {
    a = call Odd.step() @e1;
    return a;
  }
}
class Odd {
  static method step() {
    b = call Even.step() @o1;
    made = new Obj @rec_site;
    return made;
  }
}
class Obj { field pad; }
"""
        summaries, _ = _summaries(source)
        even = summaries.composed["Even.step"]
        odd = summaries.composed["Odd.step"]
        assert "rec_site" in even.ret_sites
        assert "rec_site" in odd.ret_sites
        _level, _stored, returned = summaries.site_info("rec_site")
        assert returned


_EDIT_BASE = """
entry Main.main;
class Main {
  static method main() {
    a = call A.go() @c1;
    b = call B.go() @c2;
  }
}
class A {
  static method go() {
    x = new Obj @a_site;
    return x;
  }
}
class B {
  static method go() {
    y = new Obj @b_site;
    %s
  }
}
class Obj { field pad; }
"""


class TestRefreshGranularity:
    def test_single_method_edit_recomputes_only_dirty_and_ancestors(self):
        summaries, _ = _summaries(_EDIT_BASE % "")
        edited = parse_program(_EDIT_BASE % "return y;")
        refreshed = summaries.refresh(edited, build_rta(edited))
        # Only B.go's IR changed: one intra recompute, the rest reused.
        assert refreshed.counters["intra_computed"] == 1
        assert refreshed.counters["intra_reused"] == len(refreshed.intra) - 1
        # Re-composition covers B.go and its caller, but not A.go's SCC.
        assert refreshed.counters["composed_reused"] >= 1
        assert "a_site" not in refreshed.composed["B.go"].ret_sites
        assert "b_site" in refreshed.composed["B.go"].ret_sites

    def test_unchanged_program_reuses_everything(self):
        summaries, program = _summaries(_EDIT_BASE % "")
        refreshed = summaries.refresh(program, build_rta(program))
        assert refreshed.counters["intra_computed"] == 0
        assert refreshed.counters["composed_computed"] == 0


class TestSnapshotRoundTrip:
    def test_summary_payload_survives_shared_snapshot(self, monkeypatch):
        from repro.core.cache.serialize import hydrate_shared, snapshot_shared

        monkeypatch.setenv(SUMMARIES_ENV, "on")
        program = parse_program(_LATTICE_SOURCE)
        session = AnalysisSession(program, None)
        built = session.shared.summaries()
        snapshot = snapshot_shared(session.shared)
        assert snapshot["summaries"] is not None

        hydrated = hydrate_shared(program, session.config, snapshot)
        rebuilt = hydrated.summaries()
        assert rebuilt.counters["intra_computed"] == 0
        assert rebuilt.counters["intra_reused"] == len(built.intra)
        assert rebuilt.captured_sites() == built.captured_sites()


class TestRegionCheckErrorContext:
    def test_message_names_substrate_and_summary_mode(self):
        err = RegionCheckError(
            "Main.main:L1",
            "ValueError: boom",
            backend="fleet",
            substrate=("rta", "flat"),
            summaries="on",
        )
        text = str(err)
        assert "Main.main:L1" in text
        assert "backend=fleet" in text
        assert "substrate=('rta', 'flat')" in text
        assert "summaries=on" in text

    def test_reduce_round_trips_new_fields(self):
        import pickle

        err = RegionCheckError(
            "r", "c", backend="fleet", substrate=("k",), summaries="off"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.substrate == ("k",)
        assert clone.summaries == "off"


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


class TestModeSwitch:
    def test_env_values(self, monkeypatch):
        monkeypatch.delenv(SUMMARIES_ENV, raising=False)
        assert summaries_enabled()
        for off in ("off", "0", "false", "no"):
            monkeypatch.setenv(SUMMARIES_ENV, off)
            assert not summaries_enabled()
        monkeypatch.setenv(SUMMARIES_ENV, "on")
        assert summaries_enabled()
