"""Resource dimension: lattice, effects, typestate and pipeline stage.

Covers the acquire/release machinery end to end below the bench level:
the resource-state lattice in :mod:`repro.core.era`, the effect log,
the formal type-and-effect layer, the registry, and the pipeline
stage's must-release reasoning (interprocedural summaries, ambiguous
receivers, nested loops, flows-back suppression, config gating).
"""

import pytest

from repro.core.config import DetectorConfig
from repro.core.effects import AcquireEffect, EffectLog, ReleaseEffect
from repro.core.era import (
    CUR,
    R_HELD,
    R_MAYBE,
    R_RELEASED,
    is_leaked_resource,
    join_resource,
)
from repro.core.pipeline import AnalysisSession
from repro.core.regions import RegionSpec
from repro.core.report import HEAP_LEAK, RESOURCE_LEAK, LeakFinding
from repro.core.typestate import analyze_loop
from repro.javalib import JAVALIB_SOURCE, library_source
from repro.javalib.resources import (
    ACQUIRE,
    RELEASE,
    ResourceModel,
    ResourceSpec,
    default_resource_model,
)
from repro.lang import parse_program

_REGION = RegionSpec("Main.main", "L1")


def _check(body, extra_classes="", config=None):
    source = library_source("filestream", "dbconnection") + """
entry Main.main;
class Main {
  static method main() {
    loop L1 (*) {
      %s
    }
  }
}
%s""" % (body, extra_classes)
    program = parse_program(source)
    session = AnalysisSession(program, config or DetectorConfig())
    return session.check(_REGION)


def _resource_sites(report):
    return [f.site.label for f in report.findings if f.kind == RESOURCE_LEAK]


class TestResourceLattice:
    def test_join_identity_and_idempotence(self):
        assert join_resource(None, R_HELD) == R_HELD
        assert join_resource(R_RELEASED, None) == R_RELEASED
        assert join_resource(R_HELD, R_HELD) == R_HELD

    def test_disagreement_is_maybe(self):
        assert join_resource(R_HELD, R_RELEASED) == R_MAYBE
        assert join_resource(R_RELEASED, R_MAYBE) == R_MAYBE

    def test_leak_predicate(self):
        assert is_leaked_resource(R_HELD)
        assert is_leaked_resource(R_MAYBE)
        assert not is_leaked_resource(R_RELEASED)
        assert not is_leaked_resource(None)


class TestResourceEffects:
    def test_acquire_release_recorded_and_snapshot_changes(self):
        log = EffectLog()
        before = log.snapshot()
        log.record_acquire(AcquireEffect("s1", CUR, "open", 1))
        mid = log.snapshot()
        log.record_release(ReleaseEffect("s1", CUR, "close", 2))
        after = log.snapshot()
        assert before != mid != after
        assert len(log.acquires) == 1
        assert len(log.releases) == 1

    def test_effects_key_on_site_era_method(self):
        a1 = AcquireEffect("s1", CUR, "open", 1)
        a2 = AcquireEffect("s1", CUR, "open", 99)
        assert a1 == a2  # stmt uid is not part of the identity
        assert hash(a1) == hash(a2)
        r = ReleaseEffect("s1", CUR, "open", 1)
        assert a1 != r


class TestRegistry:
    def test_default_registry_classifies_by_class(self):
        model = default_resource_model()
        assert model.event_for("FileStream", "open") == ACQUIRE
        assert model.event_for("FileStream", "close") == RELEASE
        assert model.event_for("FileStream", "read") is None
        assert model.event_for("DbConnection", "release") == RELEASE

    def test_application_close_is_not_a_release(self):
        """Class-keyed registry: an app class with its own close() (the
        Mikou model's EmbedConnection) is not a resource."""
        model = default_resource_model()
        assert model.event_for("EmbedConnection", "close") is None
        assert model.spec_for("EmbedConnection") is None

    def test_subclass_resolves_through_hierarchy(self):
        source = JAVALIB_SOURCE + """
entry Main.main;
class BufferedStream extends FileStream { }
class Main { static method main() { } }
"""
        program = parse_program(source)
        model = default_resource_model()
        spec = model.spec_for("BufferedStream", program)
        assert spec is not None and spec.kind == "file"
        assert model.event_for("BufferedStream", "open", program) == ACQUIRE

    def test_custom_registry(self):
        model = ResourceModel(
            {"Lease": ResourceSpec("Lease", ("grab",), ("drop",), "lease")}
        )
        assert model.event_for("Lease", "grab") == ACQUIRE
        assert model.event_for("FileStream", "open") is None

    def test_nameless_lookup_matches_any_spec(self):
        model = default_resource_model()
        assert model.event_for(None, "open") == ACQUIRE
        assert model.event_for(None, "disconnect") == RELEASE
        assert model.event_for(None, "frobnicate") is None


class TestTypestateResources:
    def _analyze(self, body):
        source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    loop L1 (*) {
      %s
    }
  }
}
""" % body
        program = parse_program(source)
        return analyze_loop(
            program.method("Main.main"),
            "L1",
            resource_model=default_resource_model(),
            program=program,
        )

    def test_unreleased_is_held(self):
        result = self._analyze(
            "f = new FileStream @s; call f.open() @a;"
        )
        assert result.resource_summary() == {"s": R_HELD}
        assert result.leaked_resources() == ["s"]

    def test_released_is_clean(self):
        result = self._analyze(
            "f = new FileStream @s; call f.open() @a; call f.close() @r;"
        )
        assert result.resource_summary() == {"s": R_RELEASED}
        assert result.leaked_resources() == []

    def test_conditional_release_is_maybe(self):
        result = self._analyze(
            "f = new FileStream @s; call f.open() @a;"
            " if (*) { call f.close() @r; } else { }"
        )
        assert result.resource_summary() == {"s": R_MAYBE}
        assert result.leaked_resources() == ["s"]

    def test_format_lists_resource_states(self):
        result = self._analyze(
            "f = new FileStream @s; call f.open() @a;"
        )
        assert "R(s) = held" in result.format()


class TestResourceStage:
    def test_release_in_helper_method_counts(self):
        report = _check(
            "f = new FileStream @s; call f.open() @a;"
            " h = new Helper @h; call h.shut(f) @c;",
            extra_classes=(
                "class Helper { method shut(f) { call f.close() @hc; } }"
            ),
        )
        assert _resource_sites(report) == []

    def test_release_under_nested_loop_does_not_count(self):
        report = _check(
            "f = new FileStream @s; call f.open() @a;"
            " loop L2 (*) { call f.close() @c; }"
        )
        assert _resource_sites(report) == ["s"]

    def test_ambiguous_receiver_release_does_not_count(self):
        """A release whose receiver may be either of two streams
        guarantees neither (may-alias is not must-release)."""
        report = _check(
            "f = new FileStream @s1; call f.open() @a1;"
            " g = new FileStream @s2; call g.open() @a2;"
            " if (*) { x = f; } else { x = g; }"
            " call x.close() @c;"
        )
        assert _resource_sites(report) == ["s1", "s2"]

    def test_flows_back_suppresses_report(self):
        """A handle cached across iterations (heap ERA f) may still be
        released later: the resource analogue of flows-in."""
        source = library_source("filestream") + """
entry Main.main;
class Holder { field cur; }
class Main {
  static method main() {
    h = new Holder @holder;
    loop L1 (*) {
      prev = h.cur;
      if (nonnull prev) { call prev.close() @cp; } else { }
      f = new FileStream @s;
      call f.open() @a;
      h.cur = f;
    }
  }
}
"""
        program = parse_program(source)
        session = AnalysisSession(program, DetectorConfig())
        report = session.check(_REGION)
        assert _resource_sites(report) == []

    def test_model_resources_off_disables_stage(self):
        report = _check(
            "f = new FileStream @s; call f.open() @a;",
            config=DetectorConfig(model_resources=False),
        )
        assert _resource_sites(report) == []
        assert "resource_sites" not in report.stats["counters"]

    def test_acquire_in_helper_counts(self):
        report = _check(
            "f = new FileStream @s; o = new Opener @o; call o.go(f) @c;",
            extra_classes=(
                "class Opener { method go(f) { call f.open() @oa; } }"
            ),
        )
        assert _resource_sites(report) == ["s"]

    def test_never_acquired_not_reported(self):
        report = _check("f = new FileStream @s; d = call f.read() @r;")
        assert _resource_sites(report) == []


class TestReportAndTriage:
    def test_heap_fingerprint_is_unchanged_resource_is_suffixed(self):
        class _Site:
            label = "s"
            method_sig = "M.m"
            type = "Obj"

        heap = LeakFinding(_Site(), "T", [("b", "f")], [])
        res = LeakFinding(
            _Site(), "c", [], [], kind=RESOURCE_LEAK
        )
        assert heap.fingerprint("M.m:L1") == "M.m:L1|s|b.f"
        assert res.fingerprint("M.m:L1") == "M.m:L1|s||resource-leak"
        assert heap.kind == HEAP_LEAK
        assert heap.as_dict()["kind"] == HEAP_LEAK

    def test_triage_boosts_and_labels_resource_findings(self):
        from repro.core.infer.triage import SEVERITY_WEIGHTS, triage_entries

        app_source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    loop L1 (*) {
      f = new FileStream @s;
      call f.open() @a;
    }
  }
}
"""
        program = parse_program(app_source)
        session = AnalysisSession(program, DetectorConfig())
        spec = _REGION
        report = session.check(spec)
        (entry,) = triage_entries([(spec, report)])
        assert entry.kind == RESOURCE_LEAK
        assert entry.features["resource"] == 1
        assert entry.as_dict()["kind"] == RESOURCE_LEAK
        # The resource weight participates in the score.
        assert entry.score >= SEVERITY_WEIGHTS["resource"]

    def test_resource_format_labels_evidence(self):
        report = _check("f = new FileStream @s; call f.open() @a;")
        (finding,) = report.findings
        text = finding.format()
        assert "leaking resource site" in text
        assert "acquired by" in text
