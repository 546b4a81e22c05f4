"""The fleet coordinator: identity, fan-out, failure, observability."""

import json
import os
import threading
import urllib.request

import pytest

from repro.core.config import DetectorConfig
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import scan_all_loops
from repro.errors import AnalysisError, RegionCheckError
from repro.lang import parse_program
from repro.server.coordinator import Coordinator
from repro.server.remote import RemoteTransport
from tests.conftest import MERGED_CALLS_SOURCE, canonical_pairs, report_pairs

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
    return threaded()


def _batch(server, programs):
    """POST one ``/analyze-batch``; its records, decoded."""
    request = urllib.request.Request(
        "http://127.0.0.1:%d/analyze-batch" % server.server_address[1],
        data=json.dumps({"programs": programs}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return [json.loads(line) for line in response if line.strip()]


@pytest.fixture
def serving(request):
    """``serving(**kwargs)``: a running daemon, shut down after the
    test."""
    from repro.server.app import create_server

    def start(**kwargs):
        server = create_server(port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def stop():
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        request.addfinalizer(stop)
        return server

    return start


class TestIdentity:
    def test_inline_fleet_matches_serial_canonically(self, program, inline):
        serial = report_pairs(scan_all_loops(program))
        assert canonical_pairs(inline.scan_program(MULTI)) == serial

    def test_process_fleet_matches_serial_canonically(self, program):
        coordinator = Coordinator(2)
        try:
            fleet = canonical_pairs(coordinator.scan_program(MULTI))
        finally:
            coordinator.close()
        assert fleet == report_pairs(scan_all_loops(program))

    def test_explicit_spec_order_preserved(self, program, inline):
        regions = [region_text(s) for s in reversed(candidate_loops(program))]
        result = inline.scan_program(MULTI, regions)
        assert [region for region, _ in result] == regions


class TestFanOut:
    def test_outcomes_cover_every_region_once(self, inline):
        answer = inline.submit(MULTI).result()
        assert [o["region"] for o in answer["outcomes"]] == [
            "Main.main:L1", "Main.main:L2", "Main.main:L3"
        ]
        assert all("report" in o for o in answer["outcomes"])
        assert answer["degraded"] is False
        assert answer["digest"]

    def test_empty_program_scans_nothing(self, inline):
        empty = "entry Main.main;\nclass Main { static method main() { } }"
        assert inline.submit(empty).result()["outcomes"] == []
        assert inline.scan_program(empty) == []

    def test_program_handle_reused_across_scans(self, serving, threaded_workers):
        """The fleet runs a program once; the pool entry it registers is
        the handle every later request for the text reuses — scanned
        here once, then answered from the stored scan."""
        server = serving(worker_hosts=threaded_workers())
        entry = [{"id": "p", "program": MULTI}]
        streams = [_batch(server, entry) for _ in range(3)]
        fleet = server.fleet_snapshot()
        gauges = server.gauges()
        assert fleet["shards_total"] == 1
        assert gauges["pool_sessions"] == 1
        assert gauges["pool_misses"] == 1 and gauges["pool_hits"] == 1
        for stream in streams[1:]:
            assert stream[:-1] == streams[0][:-1]

    def test_lru_evicts_old_programs(self, serving, threaded_workers):
        """The session pool's bound is the fleet's bound too: a text only
        the fleet has run takes a pool slot."""
        server = serving(worker_hosts=threaded_workers(1), max_sessions=1)
        _batch(server, [{"program": MULTI}])
        _batch(server, [{"program": MULTI + "\nclass Extra { }"}])
        gauges = server.gauges()
        assert gauges["pool_sessions"] == 1
        assert gauges["pool_evicted"] == 1
        assert server.fleet_snapshot()["shards_total"] == 2


class TestFailure:
    def test_failpoint_surfaces_as_error_outcome(self, threaded):
        fleet = threaded(failpoints="raise:Main.main:L2")
        outcomes = fleet.submit(MULTI).result()["outcomes"]
        errors = [o for o in outcomes if "error" in o]
        assert [o["region"] for o in errors] == ["Main.main:L2"]
        assert "failpoint" in errors[0]["error"]
        assert "Traceback" in errors[0]["traceback"]
        assert len(outcomes) == 3

    def test_scan_program_raises_region_check_error(self, threaded):
        fleet = threaded(failpoints="raise:Main.main:L2")
        with pytest.raises(RegionCheckError) as excinfo:
            fleet.scan_program(MULTI)
        assert "Main.main:L2" in str(excinfo.value)
        assert "backend=fleet" in str(excinfo.value)


class TestLocalWorkerDeath:
    def test_worker_killed_mid_shard_requeues_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """A forked worker that dies mid-task costs a requeue, not the
        batch: the task lands on a survivor, and every region equals
        the serial scan."""
        from repro.bench.scale import build_scaled
        from repro.core.pipeline.session import AnalysisSession

        app = build_scaled("memocache", factor=24)
        serial = scan_all_loops(app.program)
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
            fleet = canonical_pairs(coordinator.scan_program(app.source))
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert marker.exists()
        assert fleet == report_pairs(serial)
        assert stats["remote_requeues"] >= 1


class TestObservability:
    def test_fleet_stats_shape(self, inline):
        inline.scan_program(MULTI)
        stats = inline.fleet_stats()
        assert stats["workers"] == 2
        assert stats["transport"] == "remote"
        assert stats["queue_depth"] == 0
        assert stats["shards_total"] == 1  # one program task
        assert stats["regions_total"] == 3
        assert stats["shard_errors"] == 0
        assert stats["region_errors"] == 0
        assert "adoptions" not in stats
        assert stats["per_worker"]  # at least this process's pid
        for worker in stats["per_worker"].values():
            assert worker["shards"] == 1
            assert worker["busy_seconds"] >= 0

    def test_shard_latency_recorded_when_metrics_attached(self, threaded):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        threaded(workers=1, metrics=metrics).scan_program(MULTI)
        assert metrics.latency_summary("shard")["count"] == 1


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

    def test_process_transport_is_default(self):
        """``Coordinator(N)`` forks N local workers."""
        coordinator = Coordinator(2)
        try:
            coordinator.scan_program(MULTI)
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert isinstance(coordinator.transport, RemoteTransport)
        assert stats["workers"] == 2
        assert stats["transport"] == "local"
        assert stats["per_worker"]
        assert str(os.getpid()) not in stats["per_worker"]


class TestDeadlines:
    def test_worker_keeps_no_degraded_answer(self):
        """A task past its deadline answers from the fallback, flagged
        degraded; the worker keeps nothing, so the next task, which has
        no deadline, answers exactly."""
        config = DetectorConfig(demand_driven=True)
        coordinator = Coordinator(1)
        try:
            degraded = coordinator.submit(
                MERGED_CALLS_SOURCE, config=config, deadline_ms=0
            ).result()
            exact = coordinator.submit(
                MERGED_CALLS_SOURCE, config=config
            ).result()
        finally:
            coordinator.close()

        def sites(answer):
            return [
                [f["site"] for f in o["report"]["findings"]]
                for o in answer["outcomes"]
            ]

        assert sites(degraded) == [["item"]]
        assert degraded["degraded"] is True
        assert sites(exact) == [[]]
        assert exact["degraded"] is False


class TestStatelessWorker:
    def test_worker_serves_more_programs_than_it_keeps(self):
        """A worker keeps no program between tasks, and serves any number
        of distinct programs without failing one."""
        coordinator = Coordinator(1)
        try:
            answers = [
                coordinator.submit(MULTI + "\nclass Extra%d { }" % n).result()
                for n in range(6)
            ]
            stats = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert all(len(a["outcomes"]) == 3 for a in answers)
        assert len({a["digest"] for a in answers}) == 6
        assert stats["region_errors"] == 0
        assert stats["shards_total"] == 6
