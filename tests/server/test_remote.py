"""The multi-host fleet: wire protocol, hand-off, requeue, retry budgets.

The "two hosts" here are two :class:`RemoteWorkerServer` instances in
one test process — the harness CI's fleet benchmark uses with two
worker processes, because from the transport's side a worker behind
``127.0.0.1:<port>`` is indistinguishable from one on another
machine.  A ``drop`` failpoint makes a worker drop the
connection before answering a doomed program task, which is exactly
what a worker killed mid-task looks like on the wire.
"""

import json
import socket
import threading
import urllib.request

import pytest

from repro.core.config import DetectorConfig
from repro.core.scan import scan_all_loops
from repro.lang import parse_program
from repro.server import schema
from repro.server.coordinator import Coordinator
from repro.server.remote import (
    WIRE_VERSION,
    RemoteShardError,
    RemoteTransport,
    WireError,
    parse_hosts,
    recv_frame,
    send_frame,
)
from repro.server.remote_worker import Failpoints, RemoteWorkerServer
from tests.conftest import canonical_pairs, report_pairs

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
def serial_pairs(program):
    return report_pairs(scan_all_loops(program))


def _worker(**kwargs):
    return RemoteWorkerServer(**kwargs).start()


def _fleet(request, workers, **kwargs):
    transport = RemoteTransport(
        [w.address for w in workers], reconnect_backoff=0.05, **kwargs
    )
    # Connected before the first task, as the daemon's fleet is: a link
    # still dialing could leave every task to the other worker.
    transport.warm()
    coordinator = Coordinator(transport=transport)
    def teardown():
        coordinator.close()
        for worker in workers:
            worker.shutdown()
    request.addfinalizer(teardown)
    return coordinator


# -- the frame codec ---------------------------------------------------------


class TestWireFrames:
    def _pair(self):
        left, right = socket.socketpair()
        self._socks = (left, right)
        return left, right

    def teardown_method(self):
        for sock in getattr(self, "_socks", ()):
            sock.close()

    def test_round_trip_with_blobs(self):
        left, right = self._pair()
        send_frame(left, {"type": "program", "javalib": False},
                   [b"program", b"\x00" * 1000])
        header, blobs = recv_frame(right)
        assert header["type"] == "program"
        assert header["javalib"] is False
        assert header["wire"] == WIRE_VERSION == 5
        assert blobs == [b"program", b"\x00" * 1000]

    def test_empty_blob_list(self):
        left, right = self._pair()
        send_frame(left, {"type": "ping", "seq": 7})
        header, blobs = recv_frame(right)
        assert header == {"type": "ping", "seq": 7, "wire": 5, "blobs": []}
        assert blobs == []

    def test_version_mismatch_rejected(self):
        left, right = self._pair()
        payload = json.dumps({"type": "hello", "wire": 99, "blobs": []})
        encoded = payload.encode("utf-8")
        left.sendall(b"RFW1" + len(encoded).to_bytes(4, "little") + encoded)
        with pytest.raises(WireError, match="wire version mismatch"):
            recv_frame(right)

    def test_version_2_frames_rejected(self):
        """Version 2 pushed the packed snapshot layout, version 3 pushed
        the substrate in a separate ``snapshot`` exchange and version 4
        sent region shards with a pickled program; a peer that still
        speaks any of them fails on its first frame."""
        left, right = self._pair()
        for version in (2, 3, 4):
            payload = json.dumps(
                {"type": "snapshot", "wire": version, "blobs": []}
            )
            encoded = payload.encode("utf-8")
            left.sendall(
                b"RFW1" + len(encoded).to_bytes(4, "little") + encoded
            )
            with pytest.raises(WireError, match="wire version mismatch"):
                recv_frame(right)

    def test_bad_magic_rejected(self):
        left, right = self._pair()
        left.sendall(b"HTTP/1.1 GET /\r\n\r\n")
        with pytest.raises(WireError, match="bad frame magic"):
            recv_frame(right)

    def test_parse_hosts(self):
        assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts([("c", 3)]) == [("c", 3)]
        with pytest.raises(ValueError, match="host:port"):
            parse_hosts("no-port")
        with pytest.raises(ValueError, match="at least one"):
            parse_hosts("")


# -- the failpoint spec ------------------------------------------------------


class TestFailpoints:
    def test_spec_fires_by_action_region_and_budget(self):
        points = Failpoints("raise:Main.main:L2, drop:Main.main:L1*2")
        assert [points.fire("raise", "Main.main:L2") for _ in range(3)] == [
            True, True, True,
        ]
        assert [points.fire("drop", "Main.main:L1") for _ in range(3)] == [
            True, True, False,
        ]
        assert not points.fire("drop", "Main.main:L2")
        assert not points.fire("raise", "Main.main:L1")
        assert not Failpoints("").fire("raise", "Main.main:L2")

    @pytest.mark.parametrize(
        "spec", ["boom:Main.main:L1", "raise", "drop:Main.main:L1*x"]
    )
    def test_malformed_spec_is_rejected(self, spec):
        with pytest.raises(ValueError, match="bad failpoint"):
            Failpoints(spec)

    def test_environment_spec_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILPOINTS", "drop:Main.main:L3*1")
        worker = RemoteWorkerServer(port=None)
        assert worker._failpoints.fire("drop", "Main.main:L3")
        assert not worker._failpoints.fire("drop", "Main.main:L3")


# -- hand-off: one program frame is the whole task -------------------------


def _program_frame(source=MULTI, **fields):
    """A ``program`` frame's header and blob, as the coordinator builds
    them."""
    header = {
        "type": "program",
        "javalib": False,
        "regions": None,
        "config": DetectorConfig().describe(),
        "deadline_ms": None,
    }
    header.update(fields)
    return header, [source.encode("utf-8")]


def _exchange(worker, frames):
    """Send each ``(header, blobs)`` on one connection; the replies,
    then a ping's, which shows the connection still serves."""
    replies = []
    with socket.create_connection((worker.host, worker.port), timeout=30) as conn:
        for header, blobs in frames:
            send_frame(conn, header, blobs)
            replies.append(recv_frame(conn)[0])
        send_frame(conn, {"type": "ping", "seq": 1})
        assert recv_frame(conn)[0]["type"] == "pong"
    return replies


class TestHandOff:
    def test_two_host_fleet_matches_serial(
        self, request, program, serial_pairs
    ):
        workers = [_worker(), _worker()]
        fleet = _fleet(request, workers)
        answers = [fleet.scan_program(MULTI) for _ in range(4)]
        for answer in answers:
            assert canonical_pairs(answer) == serial_pairs
        stats = fleet.fleet_stats()
        assert "adoptions" not in stats
        assert stats["remote_workers_alive"] == 2
        assert sum(w.counters["programs"] for w in workers) == 4

    def test_one_shard_frame_is_the_whole_task(self, serial_pairs):
        """A fresh worker answers one ``program`` frame with a
        ``result`` carrying the digest and every region's report as
        plain JSON, and keeps nothing: the same frame again gets the
        same answer."""
        worker = _worker()
        try:
            replies = _exchange(worker, [_program_frame()] * 2)
        finally:
            worker.shutdown()
        for reply in replies:
            assert reply["type"] == "result"
            assert reply["digest"]
            assert reply["degraded"] is False
            pairs = [(o["region"], o["report"]) for o in reply["outcomes"]]
            assert canonical_pairs(pairs) == serial_pairs
        assert replies[0]["digest"] == replies[1]["digest"]
        assert worker.counters["programs"] == 2

    def test_frames_with_non_string_regions_are_bad_requests(self):
        """Regions travel as spec texts, so a program frame whose
        regions are not a list of strings is refused, and the
        connection keeps serving."""
        worker = _worker()
        try:
            replies = _exchange(worker, [
                _program_frame(regions="Main.main:L1"),
                _program_frame(regions=[["Main.main:L1"]]),
                _program_frame(regions=[1]),
            ])
        finally:
            worker.shutdown()
        assert [r["type"] for r in replies] == ["error"] * 3
        assert {r["code"] for r in replies} == {"bad_request"}
        assert worker.counters["programs"] == 0

    def test_snapshot_pushes_and_malformed_shards_are_bad_requests(self):
        """The program travels in the program frame only: a frame
        without its source blob, one with extra blobs, a separate
        ``snapshot`` push, a version-4 ``shard`` frame, a config that is
        not an object, a ``javalib`` that is not a boolean and source
        bytes that are not UTF-8 are each refused, and the connection
        keeps serving."""
        header, blobs = _program_frame()
        worker = _worker()
        try:
            replies = _exchange(worker, [
                (header, []),
                (header, blobs + [b"substrate"]),
                ({"type": "snapshot", "digest": "d"}, [b"substrate"]),
                ({"type": "shard", "digest": "d"}, [b"p", b"s", b"r"]),
                (dict(header, config=5), blobs),
                (dict(header, javalib="false"), blobs),
                (header, [b"\xff\xfe"]),
            ])
        finally:
            worker.shutdown()
        assert [r["type"] for r in replies] == ["error"] * 7
        assert {r["code"] for r in replies} == {"bad_request"}
        assert worker.counters["programs"] == 0

    def test_typed_program_errors_travel_as_results(self):
        """A program that does not parse or whose region does not
        resolve is answered, not refused: a ``result`` whose ``error``
        names the failing step and carries the message."""
        worker = _worker()
        try:
            parse, resolve = _exchange(worker, [
                _program_frame("class {"),
                _program_frame(regions=["Main.main:NOPE"]),
            ])
        finally:
            worker.shutdown()
        assert parse["type"] == resolve["type"] == "result"
        assert parse["error"]["kind"] == "parse"
        assert "line 1" in parse["error"]["message"]
        assert resolve["error"]["kind"] == "resolve"
        assert "NOPE" in resolve["error"]["message"]


# -- liveness, requeue, retry budgets ----------------------------------------


class TestRobustness:
    def test_worker_killed_mid_shard_requeues_byte_identical(
        self, request, program, serial_pairs
    ):
        # Both workers drop the connection (= die) the first time they
        # see a program with L2; the requeued task must land somewhere
        # and its answer must still equal the serial scan byte for byte.
        workers = [
            _worker(failpoints="drop:Main.main:L2*1"),
            _worker(failpoints="drop:Main.main:L2*1"),
        ]
        fleet = _fleet(request, workers)
        assert canonical_pairs(fleet.scan_program(MULTI)) == serial_pairs
        stats = fleet.fleet_stats()
        assert stats["remote_requeues"] >= 1
        assert stats["remote_retry_exhaustions"] == 0
        deaths = sum(w.counters["simulated_deaths"] for w in workers)
        assert deaths >= 1

    def test_retry_budget_exhaustion_costs_its_program(self, request):
        # No *N: die on *every* attempt.  The budget must run out and
        # fail that program's task; the next program still answers.
        worker = _worker(failpoints="drop:Main.main:L2")
        fleet = _fleet(request, [worker], retry_budget=1)
        doomed = fleet.submit(MULTI)
        healthy = fleet.submit(MULTI.replace("loop L2", "loop K2"))
        with pytest.raises(RemoteShardError, match="retry budget"):
            doomed.result()
        assert len(healthy.result()["outcomes"]) == 3
        stats = fleet.fleet_stats()
        assert stats["remote_retry_exhaustions"] == 1
        assert stats["shard_errors"] == 1

    def test_all_workers_down_exhausts_instead_of_hanging(self, request):
        worker = _worker()
        fleet = _fleet(request, [worker], retry_budget=1)
        worker.shutdown()
        # The task must fail once its budget runs out, not hang.
        with pytest.raises(RemoteShardError):
            fleet.submit(MULTI).result(timeout=60)

    def test_heartbeat_detects_a_dead_worker(self, request, program):
        worker = _worker()
        transport = RemoteTransport(
            [worker.address],
            heartbeat_interval=0.05,
            reconnect_backoff=0.05,
        )
        request.addfinalizer(worker.shutdown)
        request.addfinalizer(transport.close)
        transport.warm()
        assert transport.stats()["remote_workers_alive"] == 1
        deadline = threading.Event()
        for _ in range(100):
            if transport.stats()["remote_heartbeats"] >= 1:
                break
            deadline.wait(0.05)
        assert transport.stats()["remote_heartbeats"] >= 1
        worker.shutdown()
        for _ in range(100):
            if transport.stats()["remote_heartbeat_failures"] >= 1:
                break
            deadline.wait(0.05)
        assert transport.stats()["remote_heartbeat_failures"] >= 1


# -- the batch endpoint stays alive through exhaustion -----------------------


class TestBatchIntegration:
    def _stream(self, server, payload):
        request = urllib.request.Request(
            "http://127.0.0.1:%d/analyze-batch" % server.server_address[1],
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        response = urllib.request.urlopen(request, timeout=120)
        records = []
        for line in response:
            line = line.strip()
            if line:
                records.append(json.loads(line))
        return records

    def test_exhaustion_surfaces_as_error_record_stream_alive(self):
        from repro.server.app import create_server

        worker = _worker(failpoints="drop:Main.main:L2")
        server = create_server(port=0, worker_hosts=[worker.address])
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        healthy = MULTI.replace("loop L2", "loop K2")
        try:
            records = self._stream(
                server,
                {"programs": [
                    {"id": "p", "program": MULTI},
                    {"id": "q", "program": healthy},
                ]},
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            worker.shutdown()
        for record in records:
            schema.validate_record(record)
        assert records[-1]["record"] == "summary"
        errors = [r for r in records if r["record"] == "error"]
        regions = [r for r in records if r["record"] == "region"]
        # A dead worker costs its program, once the retries run out.
        assert len(errors) == 1
        assert errors[0]["program_id"] == "p"
        assert errors[0]["region"] is None
        assert errors[0]["error"]["code"] == "internal"
        assert "retry budget" in errors[0]["error"]["message"]
        assert [(r["program_id"], r["region"]) for r in regions] == [
            ("q", "Main.main:L1"), ("q", "Main.main:K2"), ("q", "Main.main:L3")
        ]
        assert records[-1]["errors"] == 1

    def test_metrics_export_remote_counters(self):
        from repro.server.app import create_server

        worker = _worker()
        server = create_server(port=0, worker_hosts=[worker.address])
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            self._stream(
                server, {"programs": [{"id": "p", "program": MULTI}]}
            )
            url = "http://127.0.0.1:%d/metrics" % server.server_address[1]
            with urllib.request.urlopen(url, timeout=30) as response:
                body = json.loads(response.read().decode("utf-8"))
            with urllib.request.urlopen(
                url + "?format=prometheus", timeout=30
            ) as response:
                text = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            worker.shutdown()
        fleet = body["data"]["fleet"]
        assert fleet["remote_workers_alive"] == 1
        assert fleet["remote_requeues"] == 0
        assert fleet["shards_total"] == 1
        assert "adoptions" not in fleet
        assert "leakchecker_fleet_remote_requeues 0" in text
        assert "leakchecker_fleet_shards_total 1" in text
        assert "snapshot" not in text
        assert "adoption" not in text


class TestServeWiring:
    def test_worker_hosts_alone_build_a_remote_fleet(self):
        """Naming worker hosts is enough: the daemon's fleet dials them
        instead of forking local workers, and sizes itself to them."""
        from repro.server.app import create_server

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        closed = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        server = create_server(port=0, worker_hosts=[closed])
        try:
            transport = server.coordinator.transport
            assert transport.kind == "remote"
            assert transport.workers == 1
            stats = server.coordinator.fleet_stats()
            assert stats["transport"] == "remote"
            assert stats["remote_hosts"] == [closed]
        finally:
            server.server_close()
