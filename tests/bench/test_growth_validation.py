"""Dynamic validation of the benchmark models: concrete heap growth must
match each model's embedded ground truth.

For every subject that can run under a simple schedule, the true-leak
sites must show sustained growth of their live population across loop
iterations, and the false-positive sites must stay bounded — including
the FindBugs case, where the cleared factory maps demonstrate concretely
why the destructive-update reports are false.
"""

import pytest

from repro.bench.apps import build_app
from repro.semantics.gc import growth_profile
from repro.semantics.interp import FixedSchedule


def _profile(app_name, region, trips=6):
    app = build_app(app_name)
    label = region.rpartition(":")[2]
    schedule = FixedSchedule(trips_map={label: trips}, default_trips=1)
    return app, growth_profile(app.program, region, schedule=schedule)


class TestFindbugsGrowth:
    def test_cleared_maps_do_not_grow(self):
        """The 5 statically-reported descriptor sites are concretely
        bounded: clearAll() empties the factory maps every iteration."""
        app, profile = _profile("findbugs", "Engine.mainLoop:L1")
        for site in ("class_desc", "method_desc", "field_desc"):
            assert profile.growth_of(site) <= 1, site

    def test_identity_map_contents_grow(self):
        app, profile = _profile("findbugs", "Engine.mainLoop:L1")
        for site in app.truth.leak_sites:
            assert profile.growth_of(site) >= 4, site
            assert profile.is_monotone(site), site

    def test_growing_sites_equal_true_leaks(self):
        app, profile = _profile("findbugs", "Engine.mainLoop:L1")
        assert set(profile.growing_sites()) >= app.truth.leak_sites


class TestLog4jGrowth:
    def test_all_reported_sites_grow(self):
        """log4j has zero FPs: every reported site must grow concretely."""
        app, profile = _profile("log4j", "Driver.logLoop:L1")
        branchy = {"throwable_info"}  # allocated under a branch
        for site in app.truth.leak_sites - branchy:
            assert profile.growth_of(site) >= 4, site

    def test_iteration_locals_flat(self):
        _app, profile = _profile("log4j", "Driver.logLoop:L1")
        for site in ("message_obj", "timestamp_obj"):
            # locals die with the frame; only the current iteration's
            # instance (at most) is transitively held
            assert profile.growth_of(site) <= 1, site

    def test_pivot_suppressed_payload_grows_with_its_container(self):
        """Category names ride inside the accumulated Logger objects:
        they grow concretely but are folded into the logger finding by
        pivot mode rather than reported separately."""
        _app, profile = _profile("log4j", "Driver.logLoop:L1")
        assert profile.growth_of("category_name") >= 4


class TestMysqlGrowth:
    def test_open_results_accumulate(self):
        app, profile = _profile("mysql-connector-j", "Client.workload:L1")
        assert profile.growth_of("result_set") + profile.growth_of(
            "ps_result_set"
        ) >= 4

    def test_diagnostics_bounded(self):
        app, profile = _profile("mysql-connector-j", "Client.workload:L1")
        for site in app.truth.fp_sites:
            assert profile.growth_of(site) <= 1, site


class TestSpecjbbGrowth:
    def test_btree_nodes_accumulate(self):
        _app, profile = _profile("specjbb2000", "TransactionManager.go:L1")
        assert profile.growth_of("lbn") >= 4
        assert profile.is_monotone("lbn")

    def test_overwritten_fields_bounded(self):
        app, profile = _profile("specjbb2000", "TransactionManager.go:L1")
        for site in ("screen_obj", "report_obj", "logentry", "tstamp"):
            assert profile.growth_of(site) <= 1, site
