"""The fleet coordinator: identity, fan-out, failure, observability."""

import os

import pytest

from repro.core.config import DetectorConfig
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import ScanResult, scan_all_loops
from repro.errors import AnalysisError, RegionCheckError
from repro.lang import parse_program
from repro.server.coordinator import Coordinator
from repro.server.pool import SessionPool
from repro.server.remote import RemoteTransport
from tests.conftest import MERGED_CALLS_SOURCE

MULTI = """
entry Main.main;
class Main {
  static method main() {
    c = new Cache @cache;
    loop L1 (*) {
      x = new Item @item;
      c.slot = x;
    }
    loop L2 (*) {
      t = new Temp @temp;
    }
    loop L3 (*) {
      y = new Row @row;
      c.other = y;
    }
  }
}
class Cache { field slot; field other; }
class Item { }
class Temp { }
class Row { }
"""


@pytest.fixture
def program():
    return parse_program(MULTI)


@pytest.fixture
def threaded(request, threaded_workers):
    """``threaded(workers=2, failpoints="", **kwargs)``: a coordinator
    over worker servers on threads of this process, dialed like remote
    hosts."""

    def build(workers=2, failpoints="", **kwargs):
        coordinator = Coordinator(
            worker_hosts=threaded_workers(workers, failpoints), **kwargs
        )
        request.addfinalizer(coordinator.close)
        return coordinator

    return build


@pytest.fixture
def inline(threaded):
    return threaded(shard_size=1)


class TestIdentity:
    def test_inline_fleet_matches_serial_canonically(self, program, inline):
        serial = scan_all_loops(program).to_json(canonical=True)
        fleet = inline.scan_program(program).to_json(canonical=True)
        assert fleet == serial

    def test_process_fleet_matches_serial_canonically(self, program):
        coordinator = Coordinator(2)
        try:
            serial = scan_all_loops(program).to_json(canonical=True)
            fleet = coordinator.scan_program(program).to_json(canonical=True)
        finally:
            coordinator.close()
        assert fleet == serial

    def test_explicit_spec_order_preserved(self, program, inline):
        specs = list(reversed(candidate_loops(program)))
        result = inline.scan_program(program, specs=specs)
        assert [region_text(spec) for spec, _ in result.entries] == [
            region_text(spec) for spec in specs
        ]


class TestFanOut:
    def test_outcomes_cover_every_region_once(self, program, inline):
        outcomes = list(inline.scan_iter(program))
        assert sorted(o.index for o in outcomes) == [0, 1, 2]
        assert all(o.kind == "ok" for o in outcomes)

    def test_empty_program_scans_nothing(self, inline):
        empty = parse_program(
            "entry Main.main;\nclass Main { static method main() { } }"
        )
        assert list(inline.scan_iter(empty)) == []
        assert inline.scan_program(empty).entries == []

    def test_program_handle_reused_across_scans(self, program, inline):
        inline.scan_program(program)
        inline.scan_program(program)
        assert inline.pool.stats()["pool_sessions"] == 1
        # Second scan adopts from the worker LRU, not a fresh hydration.
        assert inline.fleet_stats()["adoptions"]["lru"] > 0

    def test_lru_evicts_old_programs(self, request, threaded, program):
        """The session pool's bound is the fleet's bound too."""
        pool = SessionPool(max_sessions=1)
        request.addfinalizer(pool.close)
        coordinator = threaded(workers=1, pool=pool)
        other = parse_program(MULTI + "\nclass Extra { }")
        coordinator.scan_program(program)
        coordinator.scan_program(other)
        stats = pool.stats()
        assert stats["pool_sessions"] == 1
        assert stats["pool_evicted"] == 1


class TestFailure:
    def test_failpoint_surfaces_as_error_outcome(self, threaded, program):
        fleet = threaded(failpoints="raise:Main.main:L2", shard_size=1)
        outcomes = list(fleet.scan_iter(program))
        by_kind = {}
        for outcome in outcomes:
            by_kind.setdefault(outcome.kind, []).append(outcome)
        assert len(by_kind["error"]) == 1
        assert by_kind["error"][0].region == "Main.main:L2"
        assert "failpoint" in by_kind["error"][0].cause
        assert len(by_kind["ok"]) == 2

    def test_scan_program_raises_region_check_error(self, threaded, program):
        fleet = threaded(failpoints="raise:Main.main:L2", shard_size=1)
        with pytest.raises(RegionCheckError) as excinfo:
            fleet.scan_program(program)
        assert "Main.main:L2" in str(excinfo.value)
        assert "backend=fleet" in str(excinfo.value)


class TestLocalWorkerDeath:
    def test_worker_killed_mid_shard_requeues_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """A forked worker that dies mid-shard costs a requeue, not the
        batch: the shard lands on a survivor, and every region equals
        the serial scan."""
        from repro.bench.scale import build_scaled
        from repro.core.pipeline.session import AnalysisSession

        program = build_scaled("memocache", factor=24).program
        serial = scan_all_loops(program)
        doomed = region_text(serial.entries[0][0])
        marker = tmp_path / "died"
        parent = os.getpid()
        check = AnalysisSession.check

        def dying_check(session, spec):
            # Once, in whichever forked worker gets there first; the
            # marker keeps it one-shot across re-forks.
            if os.getpid() != parent and region_text(spec) == doomed:
                try:
                    marker.open("x").close()
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return check(session, spec)

        # Before the fleet forks, so that its workers inherit the patch.
        monkeypatch.setattr(AnalysisSession, "check", dying_check)
        coordinator = Coordinator(2)
        try:
            outcomes = list(coordinator.scan_iter(program))
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert marker.exists()
        assert [(o.region, o.cause) for o in outcomes if o.kind != "ok"] == []
        reports = [None] * len(serial.entries)
        for outcome in outcomes:
            reports[outcome.index] = outcome.report
        specs = [spec for spec, _ in serial.entries]
        fleet = ScanResult(list(zip(specs, reports)))
        assert fleet.to_json(canonical=True) == serial.to_json(canonical=True)
        assert stats["remote_requeues"] >= 1


class TestObservability:
    def test_fleet_stats_shape(self, program, inline):
        inline.scan_program(program)
        stats = inline.fleet_stats()
        assert stats["workers"] == 2
        assert stats["transport"] == "remote"
        assert stats["queue_depth"] == 0
        assert stats["shards_total"] == 3  # shard_size=1, three loops
        assert stats["regions_total"] == 3
        assert stats["shard_errors"] == 0
        assert sum(stats["adoptions"].values()) == 3
        assert stats["per_worker"]  # at least this process's pid
        for worker in stats["per_worker"].values():
            assert worker["shards"] >= 1
            assert worker["busy_seconds"] >= 0

    def test_shard_latency_recorded_when_metrics_attached(
        self, threaded, program
    ):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        threaded(workers=1, metrics=metrics).scan_program(program)
        assert metrics.latency_summary("shard")["count"] >= 1


class TestConstruction:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(AnalysisError, match="--workers"):
            Coordinator(0)

    def test_transport_instances_pass_through(
        self, request, threaded_workers
    ):
        transport = RemoteTransport(threaded_workers())
        coordinator = Coordinator(transport=transport)
        request.addfinalizer(coordinator.close)
        assert coordinator.transport is transport
        assert coordinator.fleet_stats()["workers"] == 1

    def test_process_transport_is_default(self, program):
        """``Coordinator(N)`` forks N local workers."""
        coordinator = Coordinator(2)
        try:
            coordinator.scan_program(program)
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert isinstance(coordinator.transport, RemoteTransport)
        assert stats["workers"] == 2
        assert stats["transport"] == "local"
        assert stats["per_worker"]
        assert str(os.getpid()) not in stats["per_worker"]


class TestAdoptionFailures:
    def test_corrupt_snapshot_falls_back_cold_and_counts(self, program):
        """A hand-off that fails to decode must not fail the shard: the
        worker rebuilds cold, answers correctly, and the coordinator
        counts the failure."""
        coordinator = Coordinator(1, shard_size=1)
        try:
            serial = scan_all_loops(program).to_json(canonical=True)
            entry = coordinator.pool.handoff(program)
            entry.substrate = b"not a substrate"
            fleet = coordinator.scan_program(program).to_json(canonical=True)
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert fleet == serial
        assert stats["adoption_failures"] >= 1
        assert stats["adoptions"]["cold"] >= 1
        assert stats["adoptions"]["wire"] == 0


class TestDeadlines:
    def test_worker_keeps_no_degraded_answer(self):
        """A shard past its deadline answers from the fallback, flagged
        degraded; the worker's adopted session must not serve that
        answer to the next shard, which has no deadline."""
        config = DetectorConfig(demand_driven=True)
        coordinator = Coordinator(1, pool=SessionPool(config=config))
        try:
            degraded = list(
                coordinator.scan_iter(
                    parse_program(MERGED_CALLS_SOURCE), deadline_ms=0
                )
            )
            exact = list(
                coordinator.scan_iter(parse_program(MERGED_CALLS_SOURCE))
            )
            adoptions = coordinator.fleet_stats()["adoptions"]
        finally:
            coordinator.close()
        assert [o.report.leaking_site_labels for o in degraded] == [["item"]]
        assert [o.degraded for o in degraded] == [True]
        assert [o.report.leaking_site_labels for o in exact] == [[]]
        assert [o.degraded for o in exact] == [False]
        assert adoptions["lru"] == 1


class TestAdoptedSessions:
    def test_worker_serves_more_programs_than_it_keeps(self):
        """A worker evicts adopted sessions past ``MAX_ADOPTED`` and
        adopts each new program over the wire without failing a shard."""
        from repro.server.remote_worker import MAX_ADOPTED

        coordinator = Coordinator(1)
        try:
            errors = []
            for n in range(MAX_ADOPTED + 2):
                distinct = parse_program(MULTI + "\nclass Extra%d { }" % n)
                errors += [
                    outcome
                    for outcome in coordinator.scan_iter(distinct)
                    if outcome.kind == "error"
                ]
            adoptions = coordinator.fleet_stats()["adoptions"]
        finally:
            coordinator.close()
        assert [(o.region, o.cause) for o in errors] == []
        assert adoptions["wire"] == MAX_ADOPTED + 2

    def test_concurrent_use_keeps_capacity(self):
        """A remote worker's connection threads share one instance:
        concurrent put/get/clear must never raise nor overfill it."""
        import sys
        import threading

        from repro.server.remote_worker import AdoptedSessions

        sessions = AdoptedSessions(capacity=2)
        failures = []

        def churn(offset):
            try:
                for n in range(3000):
                    key = (offset + n) % 7
                    sessions.put(key, object())
                    sessions.get(key)
                    if n % 97 == 0:
                        sessions.clear()
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(sessions._entries) <= sessions.capacity
