"""Tests for repro.core.infer: classification, candidate catalogs, and
region suggestions."""

import pytest

from repro.bench.apps import all_apps
from repro.core.infer import (
    GUARDED,
    UNBOUNDED,
    classify_loops,
    entry_distances,
    infer_candidates,
    suggest_regions,
)
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec, candidate_loops, region_text
from repro.lang import parse_program


def _session(program):
    return AnalysisSession(program)


NESTED_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @h1;
    loop OUTER (*) {
      x = new Item @a1;
      h.f = x;
      loop INNER (nonnull x) {
        y = new Item @a2;
        x = y;
      }
    }
  }
}
class Holder { field f; }
class Item { field f; }
"""


class TestClassifyLoops:
    def test_kinds_and_depths(self):
        program = parse_program(NESTED_SOURCE)
        profiles = {
            p.label: p for p in classify_loops(program, _session(program).callgraph)
        }
        assert set(profiles) == {"OUTER", "INNER"}
        assert profiles["OUTER"].kind == UNBOUNDED
        assert profiles["INNER"].kind == GUARDED
        assert profiles["OUTER"].nest_depth == 1
        assert profiles["INNER"].nest_depth == 2

    def test_allocation_and_store_counts(self):
        program = parse_program(NESTED_SOURCE)
        profiles = {
            p.label: p for p in classify_loops(program, _session(program).callgraph)
        }
        # OUTER lexically contains both its own and INNER's allocations.
        assert profiles["OUTER"].allocs_direct == 2
        assert profiles["INNER"].allocs_direct == 1
        assert profiles["OUTER"].stores == 1

    def test_reachability_and_distance(self, figure1):
        callgraph = _session(figure1).callgraph
        profiles = {p.label: p for p in classify_loops(figure1, callgraph)}
        assert profiles["L1"].reachable
        assert profiles["L1"].call_distance == 0
        assert profiles["LC"].call_distance == 1
        distances = entry_distances(figure1, callgraph)
        assert distances["Main.main"] == 0

    def test_features_dict_is_stable(self, figure1):
        callgraph = _session(figure1).callgraph
        for profile in classify_loops(figure1, callgraph):
            features = profile.features()
            assert set(features) == {
                "kind",
                "nest_depth",
                "blocks",
                "allocs_direct",
                "allocs_transitive",
                "stores",
                "loads",
                "calls",
                "reachable",
                "call_distance",
            }


def _nests(body):
    """``label -> (nest depth, blocks)`` of the loops of ``Main.main``
    with ``body``, as classified."""
    program = parse_program(
        "entry Main.main;\n"
        "class Main { static method main() { p = new Item @a1; %s } }\n"
        "class Item { }" % body
    )
    return {
        profile.label: (profile.nest_depth, profile.blocks)
        for profile in classify_loops(program, _session(program).callgraph)
    }


class TestLoopNest:
    """Depth and block count of the method's natural loops: a loop whose
    back edge cannot run keeps ``(1, 0)``, and a loop only nests in the
    natural loops whose body's end is reachable from the code after it.
    """

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("loop L (*) { return; }", {"L": (1, 0)}),
            (
                "loop L (*) { loop M (*) { x = p; } return; }",
                {"L": (1, 0), "M": (1, 2)},
            ),
            ("return; loop L (*) { x = p; }", {"L": (1, 0)}),
            (
                "loop L (*) { if (*) { loop M (*) { x = p; } return; } }",
                {"L": (1, 5), "M": (1, 2)},
            ),
            ("loop L (*) { if (*) { return; } x = p; }", {"L": (1, 5)}),
            (
                "loop L (*) { loop M (*) { x = p; } }",
                {"L": (1, 5), "M": (2, 2)},
            ),
        ],
        ids=[
            "body-always-returns",
            "inner-loop-then-return",
            "after-a-return",
            "inner-loop-in-a-returning-arm",
            "block-after-a-return",
            "plain-nest",
        ],
    )
    def test_exact_pair(self, body, expected):
        assert _nests(body) == expected


class TestInferCandidates:
    def test_catalog_sorted_best_first(self, figure1):
        catalog = infer_candidates(figure1, _session(figure1).callgraph)
        scores = [c.score for c in catalog.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_superset_of_labelled_loops(self, figure1):
        catalog = infer_candidates(figure1, _session(figure1).callgraph)
        texts = set(catalog.spec_texts())
        for spec in candidate_loops(figure1):
            assert region_text(spec) in texts

    def test_catalog_deterministic(self, figure1):
        callgraph = _session(figure1).callgraph
        first = infer_candidates(figure1, callgraph)
        second = infer_candidates(figure1, callgraph)
        assert first.spec_texts() == second.spec_texts()
        assert [c.score for c in first.candidates] == [
            c.score for c in second.candidates
        ]

    def test_counters_present(self, figure1):
        catalog = infer_candidates(figure1, _session(figure1).callgraph)
        assert catalog.counters["infer_methods_analyzed"] > 0
        assert catalog.counters["infer_loops_classified"] == 2

    def test_top_k_selection(self, figure1):
        catalog = infer_candidates(figure1, _session(figure1).callgraph)
        assert len(catalog.selected_specs(top=1)) == 1
        assert catalog.selected_specs(top=0) == []
        # Default selection keeps every loop candidate.
        selected = catalog.selected_specs()
        loop_specs = [s for s in selected if s.loop_label is not None]
        assert len(loop_specs) == len(catalog.loops())

    def test_loop_free_program_yields_empty_or_method_candidates(self):
        program = parse_program(
            "entry A.m;\nclass A { static method m() { return; } }"
        )
        catalog = infer_candidates(program, _session(program).callgraph)
        assert catalog.loops() == []
        assert catalog.format() == "0 candidate regions"

    def test_method_candidates_for_artificial_regions(self):
        apps = {app.name: app for app in all_apps()}
        for name in ("eclipse-diff", "eclipse-cp"):
            app = apps[name]
            catalog = infer_candidates(
                app.program, AnalysisSession(app.program, app.config).callgraph
            )
            methods = {c.text for c in catalog.methods()}
            assert region_text(app.region) in methods
            specs = catalog.selected_specs()
            assert any(isinstance(s, RegionSpec) for s in specs)

    def test_all_golden_regions_discovered(self):
        """Acceptance: auto-inference finds every hand-labelled golden
        region on all eight bench apps."""
        for app in all_apps():
            session = AnalysisSession(app.program, app.config)
            catalog = infer_candidates(app.program, session.callgraph)
            selected = {
                region_text(spec) for spec in catalog.selected_specs()
            }
            assert region_text(app.region) in selected, app.name


class TestSuggestRegions:
    def test_typo_in_loop_label(self, figure1):
        matches = suggest_regions(figure1, "Main.main:L9")
        assert "Main.main:L1" in matches

    def test_typo_in_method(self, figure1):
        matches = suggest_regions(figure1, "Main.mian")
        assert "Main.main" in matches

    def test_tail_fallback(self, figure1):
        matches = suggest_regions(figure1, "Whatever.txInit")
        assert any("txInit" in m for m in matches)

    def test_limit_respected(self, figure1):
        assert len(suggest_regions(figure1, "Main.main", limit=2)) <= 2
