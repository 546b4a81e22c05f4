"""The fleet coordinator: identity, fan-out, failure, observability."""

import os

import pytest

from repro.core.regions import candidate_loops, region_text
from repro.core.scan import scan_all_loops
from repro.errors import AnalysisError, RegionCheckError
from repro.lang import parse_program
from repro.server.coordinator import Coordinator
from repro.server.transport import (
    InlineTransport,
    LocalProcessTransport,
    make_transport,
)
from repro.server.worker import FAILPOINT_ENV, reset_worker_state

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
def inline(request):
    coordinator = Coordinator(2, transport="inline", shard_size=1)
    request.addfinalizer(coordinator.close)
    reset_worker_state()
    request.addfinalizer(reset_worker_state)
    return coordinator


class TestIdentity:
    def test_inline_fleet_matches_serial_canonically(self, program, inline):
        serial = scan_all_loops(program).to_json(canonical=True)
        fleet = inline.scan_program(program).to_json(canonical=True)
        assert fleet == serial

    def test_process_fleet_matches_serial_canonically(self, program):
        coordinator = Coordinator(2, transport="process")
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
        stats = inline.fleet_stats()
        assert stats["programs_cached"] == 1
        # Second scan adopts from the worker LRU, not a fresh hydration.
        assert stats["adoptions"]["lru"] > 0

    def test_lru_evicts_old_programs(self, program):
        coordinator = Coordinator(
            1, transport="inline", max_programs=1
        )
        try:
            other = parse_program(MULTI + "\nclass Extra { }")
            coordinator.scan_program(program)
            coordinator.scan_program(other)
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
            reset_worker_state()
        assert stats["programs_cached"] == 1
        assert stats["programs_evicted"] == 1


class TestFailure:
    def test_failpoint_surfaces_as_error_outcome(self, program, inline):
        os.environ[FAILPOINT_ENV] = "Main.main:L2"
        try:
            outcomes = list(inline.scan_iter(program))
        finally:
            del os.environ[FAILPOINT_ENV]
        by_kind = {}
        for outcome in outcomes:
            by_kind.setdefault(outcome.kind, []).append(outcome)
        assert len(by_kind["error"]) == 1
        assert by_kind["error"][0].region == "Main.main:L2"
        assert "failpoint" in by_kind["error"][0].cause
        assert len(by_kind["ok"]) == 2

    def test_scan_program_raises_region_check_error(self, program, inline):
        os.environ[FAILPOINT_ENV] = "Main.main:L2"
        try:
            with pytest.raises(RegionCheckError) as excinfo:
                inline.scan_program(program)
        finally:
            del os.environ[FAILPOINT_ENV]
        assert "Main.main:L2" in str(excinfo.value)
        assert "backend=fleet" in str(excinfo.value)


class TestObservability:
    def test_fleet_stats_shape(self, program, inline):
        inline.scan_program(program)
        stats = inline.fleet_stats()
        assert stats["workers"] == 2
        assert stats["transport"] == "inline"
        assert stats["queue_depth"] == 0
        assert stats["shards_total"] == 3  # shard_size=1, three loops
        assert stats["regions_total"] == 3
        assert stats["shard_errors"] == 0
        assert sum(stats["adoptions"].values()) == 3
        assert stats["per_worker"]  # at least this process's pid
        for worker in stats["per_worker"].values():
            assert worker["shards"] >= 1
            assert worker["busy_seconds"] >= 0

    def test_shard_latency_recorded_when_metrics_attached(self, program):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        coordinator = Coordinator(
            1, transport="inline", metrics=metrics
        )
        try:
            coordinator.scan_program(program)
        finally:
            coordinator.close()
            reset_worker_state()
        assert metrics.latency_summary("shard")["count"] >= 1


class TestConstruction:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(AnalysisError, match="--workers"):
            Coordinator(0, transport="inline")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet transport"):
            make_transport("carrier-pigeon", 2)

    def test_transport_instances_pass_through(self):
        transport = InlineTransport(3)
        assert make_transport(transport, 99) is transport

    def test_process_transport_is_default(self):
        coordinator = Coordinator(2)
        try:
            assert isinstance(coordinator.transport, LocalProcessTransport)
            assert coordinator.transport.workers == 2
        finally:
            coordinator.close()


class _FakePool:
    """Stands in for a ProcessPoolExecutor; optionally born broken."""

    def __init__(self, broken=False):
        self.broken = broken
        self.submits = 0
        self.shutdowns = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        if self.broken:
            raise BrokenProcessPool("worker died")
        self.submits += 1
        future = Future()
        future.set_result("ok")
        return future

    def shutdown(self, wait=False, cancel_futures=False):
        self.shutdowns += 1


class TestBrokenPoolRebuild:
    """Regression: concurrent submits observing the same broken pool
    must trigger exactly one rebuild, not a rebuild per submitter."""

    def _transport_with_broken_first_pool(self):
        import threading

        transport = LocalProcessTransport(2)
        pools = []

        def make_pool():
            pool = _FakePool(broken=not pools)  # first broken, rest fine
            pools.append(pool)
            return pool

        transport._make_pool = make_pool
        return transport, pools, threading

    def test_single_broken_submit_rebuilds_once(self):
        transport, pools, _ = self._transport_with_broken_first_pool()
        assert transport.submit({"fake": True}).result() == "ok"
        assert transport.rebuilds == 1
        assert len(pools) == 2
        assert pools[0].shutdowns == 1
        assert pools[1].submits == 1

    def test_concurrent_broken_submits_rebuild_once(self):
        transport, pools, threading = self._transport_with_broken_first_pool()
        # Everyone grabs the broken pool before anyone retries, the
        # worst-case race: all then contend on _replace_broken.
        transport._ensure_pool()
        barrier = threading.Barrier(8)
        results = []

        def submit():
            barrier.wait()
            results.append(transport.submit({"fake": True}).result())

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == ["ok"] * 8
        assert transport.rebuilds == 1
        assert len(pools) == 2
        assert pools[0].shutdowns == 1
        assert pools[1].submits == 8


class TestAdoptionFailures:
    def test_corrupt_snapshot_falls_back_cold_and_counts(self, program):
        """A hand-off that fails to decode must not fail the shard: the
        worker rebuilds cold, answers correctly, and the coordinator
        counts the failure."""
        coordinator = Coordinator(1, transport="inline", shard_size=1)
        try:
            reset_worker_state()
            serial = scan_all_loops(program).to_json(canonical=True)
            handle = coordinator.ensure_program(program)
            handle.snapshot = {"bogus": "not a snapshot"}
            fleet = coordinator.scan_program(program).to_json(canonical=True)
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
            reset_worker_state()
        assert fleet == serial
        assert stats["adoption_failures"] >= 1
        assert stats["adoptions"]["cold"] >= 1
        assert stats["adoptions"]["snapshot"] == 0


class TestAdoptedSessions:
    def test_worker_serves_more_programs_than_it_keeps(self):
        """Regression: evicting a session adopted over shared memory
        closed the segment while the session's masks still viewed it;
        the BufferError failed every shard from the fifth program on."""
        from repro.server.worker import MAX_ADOPTED

        coordinator = Coordinator(1, transport="process")
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
        assert adoptions["shm"] == MAX_ADOPTED + 2

    def test_viewed_handle_closes_once_the_view_is_gone(self):
        from multiprocessing import shared_memory

        from repro.server.worker import AdoptedSessions

        segment = shared_memory.SharedMemory(create=True, size=16)
        try:
            handle = shared_memory.SharedMemory(name=segment.name)
            view = memoryview(handle.buf)[:4]  # what a mask table holds
            sessions = AdoptedSessions(capacity=1)
            sessions.put("a", object(), handle)
            sessions.put("b", object())  # evicts "a" while it is viewed
            view[0] = 7  # the segment is still mapped
            assert segment.buf[0] == 7
            del view
            sessions.clear()
            assert handle._mmap is None  # closed on the retry
        finally:
            segment.close()
            segment.unlink()

    def test_concurrent_use_keeps_capacity(self):
        """A remote worker's connection threads share one instance:
        concurrent put/get/clear must never raise nor overfill it."""
        import sys
        import threading

        from repro.server.worker import AdoptedSessions

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
