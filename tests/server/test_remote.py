"""The multi-host fleet: wire protocol, hand-off, requeue, retry budgets.

The "two hosts" here are two :class:`RemoteWorkerServer` instances in
one test process — the harness CI's fleet benchmark uses with two
worker processes, because from the transport's side a worker behind
``127.0.0.1:<port>`` is indistinguishable from one on another
machine.  A ``drop`` failpoint makes a worker drop the
connection before answering a doomed shard, which is exactly what a
worker killed mid-shard looks like on the wire.
"""

import json
import pickle
import socket
import threading
import urllib.request

import pytest

from repro.core.regions import candidate_loops
from repro.core.scan import ScanResult, scan_all_loops
from repro.lang import parse_program
from repro.server import schema
from repro.server.coordinator import Coordinator
from repro.server.pool import SessionPool
from repro.server.remote import (
    WIRE_VERSION,
    RemoteTransport,
    WireError,
    parse_hosts,
    recv_frame,
    send_frame,
)
from repro.server.remote_worker import Failpoints, RemoteWorkerServer

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
def serial_json(program):
    return scan_all_loops(program).to_json(canonical=True)


def _worker(**kwargs):
    return RemoteWorkerServer(**kwargs).start()


def _fleet(request, workers, **kwargs):
    transport = RemoteTransport(
        [w.address for w in workers], reconnect_backoff=0.05, **kwargs
    )
    # Connected before the first shard, as the daemon's fleet is: a link
    # still dialing could leave every shard to the other worker.
    transport.warm()
    coordinator = Coordinator(transport=transport, shard_size=1)
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
        send_frame(left, {"type": "shard", "digest": "d"},
                   [b"program", b"\x00" * 1000])
        header, blobs = recv_frame(right)
        assert header["type"] == "shard"
        assert header["digest"] == "d"
        assert header["wire"] == WIRE_VERSION == 4
        assert blobs == [b"program", b"\x00" * 1000]

    def test_empty_blob_list(self):
        left, right = self._pair()
        send_frame(left, {"type": "ping", "seq": 7})
        header, blobs = recv_frame(right)
        assert header == {"type": "ping", "seq": 7, "wire": 4, "blobs": []}
        assert blobs == []

    def test_version_mismatch_rejected(self):
        left, right = self._pair()
        payload = json.dumps({"type": "hello", "wire": 99, "blobs": []})
        encoded = payload.encode("utf-8")
        left.sendall(b"RFW1" + len(encoded).to_bytes(4, "little") + encoded)
        with pytest.raises(WireError, match="wire version mismatch"):
            recv_frame(right)

    def test_version_2_frames_rejected(self):
        """Version 2 pushed the packed snapshot layout and version 3
        pushed the substrate in a separate ``snapshot`` exchange; a peer
        that still speaks either fails on its first frame."""
        left, right = self._pair()
        for version in (2, 3):
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


# -- hand-off: every shard frame carries its substrate ----------------------


def _shard_frame(program, indices=None):
    """A ``shard`` frame's header and three blobs for ``program``,
    built from a session pool's hand-off as the coordinator builds
    them."""
    pool = SessionPool()
    entry = pool.handoff(program)
    specs = candidate_loops(program)
    header = {
        "type": "shard",
        "digest": entry.digest,
        "config": pool.config.describe(),
        "indices": list(range(len(specs))) if indices is None else indices,
        "deadline_ms": None,
    }
    blobs = [
        entry.program_blob,
        entry.substrate,
        pickle.dumps(specs, protocol=pickle.HIGHEST_PROTOCOL),
    ]
    return header, blobs


class TestHandOff:
    def test_two_host_fleet_matches_serial(
        self, request, program, serial_json
    ):
        workers = [_worker(), _worker()]
        fleet = _fleet(request, workers)
        assert fleet.scan_program(program).to_json(canonical=True) == serial_json
        stats = fleet.fleet_stats()
        # Both workers were cold: each hydrated the substrate its first
        # shard frame carried, and nothing was pushed separately.
        assert stats["adoptions"]["wire"] == 2
        assert "remote_snapshot_pushes" not in stats
        assert stats["remote_workers_alive"] == 2

    def test_one_shard_frame_is_the_whole_task(self, program, serial_json):
        """A fresh worker answers one three-blob ``shard`` frame with a
        ``result``: it hydrates the frame's substrate, and the next
        frame for the digest is served from its LRU."""
        specs = candidate_loops(program)
        header, blobs = _shard_frame(program)
        worker = _worker()
        try:
            with socket.create_connection(
                (worker.host, worker.port), timeout=30
            ) as conn:
                adoptions = []
                for _ in range(2):
                    send_frame(conn, header, blobs)
                    reply, reply_blobs = recv_frame(conn)
                    assert reply["type"] == "result"
                    adoptions.append(reply["adoption"])
                    assert reply["adoption_failures"] == 0
                    outcomes = pickle.loads(reply_blobs[0])
                    assert [outcome[:2] for outcome in outcomes] == [
                        (index, "ok") for index in range(len(specs))
                    ]
                    scan = ScanResult(
                        [(spec, outcome[2])
                         for spec, outcome in zip(specs, outcomes)]
                    )
                    assert scan.to_json(canonical=True) == serial_json
        finally:
            worker.shutdown()
        assert adoptions == ["wire", "lru"]
        assert worker.counters["shards"] == 2

    def test_corrupt_pushed_snapshot_degrades_to_cold(
        self, request, program, serial_json
    ):
        worker = _worker()
        fleet = _fleet(request, [worker])
        # Every shard frame carries garbage for the program's substrate;
        # the worker must rebuild cold and count the failure, never
        # answer wrong.
        fleet.pool.handoff(program).substrate = b"not a substrate"
        assert fleet.scan_program(program).to_json(canonical=True) == serial_json
        assert worker.counters["adoption_failures"] == 1
        assert fleet.fleet_stats()["adoption_failures"] == 1

    def test_frames_without_a_string_digest_are_bad_requests(self, program):
        """A digest keys the worker's warm sessions, so a shard frame
        whose digest is not a string is refused, and the connection
        keeps serving."""
        header, blobs = _shard_frame(program)
        header["digest"] = [header["digest"]]
        worker = _worker()
        try:
            with socket.create_connection(
                (worker.host, worker.port), timeout=10
            ) as conn:
                send_frame(conn, header, blobs)
                reply, _ = recv_frame(conn)
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                send_frame(conn, {"type": "ping", "seq": 1})
                assert recv_frame(conn)[0]["type"] == "pong"
        finally:
            worker.shutdown()
        assert worker.counters["shards"] == 0

    def test_snapshot_pushes_and_malformed_shards_are_bad_requests(
        self, program
    ):
        """The substrate travels in the shard frame only: a shard frame
        without it and a separate ``snapshot`` push are each refused, as
        is a shard whose config is not an object, and the connection
        keeps serving."""
        header, blobs = _shard_frame(program)
        worker = _worker()
        try:
            with socket.create_connection(
                (worker.host, worker.port), timeout=10
            ) as conn:
                for frame_header, frame_blobs in (
                    (header, [blobs[0], blobs[2]]),
                    ({"type": "snapshot", "digest": header["digest"]},
                     [blobs[1]]),
                    (dict(header, config=5), blobs),
                ):
                    send_frame(conn, frame_header, frame_blobs)
                    reply, _ = recv_frame(conn)
                    assert reply["type"] == "error"
                    assert reply["code"] == "bad_request"
                send_frame(conn, {"type": "ping", "seq": 1})
                assert recv_frame(conn)[0]["type"] == "pong"
        finally:
            worker.shutdown()
        assert worker.counters["shards"] == 0


# -- liveness, requeue, retry budgets ----------------------------------------


class TestRobustness:
    def test_worker_killed_mid_shard_requeues_byte_identical(
        self, request, program, serial_json
    ):
        # Both workers drop the connection (= die) the first time they
        # see L2's shard; the requeued shard must land somewhere and
        # the batch must still equal the serial scan byte for byte.
        workers = [
            _worker(failpoints="drop:Main.main:L2*1"),
            _worker(failpoints="drop:Main.main:L2*1"),
        ]
        fleet = _fleet(request, workers)
        assert fleet.scan_program(program).to_json(canonical=True) == serial_json
        stats = fleet.fleet_stats()
        assert stats["remote_requeues"] >= 1
        assert stats["remote_retry_exhaustions"] == 0
        deaths = sum(w.counters["simulated_deaths"] for w in workers)
        assert deaths >= 1

    def test_retry_budget_exhaustion_is_per_region_error(
        self, request, program
    ):
        # No *N: die on *every* attempt.  The budget must run out, and
        # only L2 may turn into an error outcome.
        worker = _worker(failpoints="drop:Main.main:L2")
        fleet = _fleet(request, [worker], retry_budget=1)
        outcomes = {o.region: o for o in fleet.scan_iter(program)}
        assert outcomes["Main.main:L2"].kind == "error"
        assert "retry budget" in outcomes["Main.main:L2"].cause
        assert outcomes["Main.main:L1"].kind == "ok"
        assert outcomes["Main.main:L3"].kind == "ok"
        assert fleet.fleet_stats()["remote_retry_exhaustions"] == 1

    def test_all_workers_down_exhausts_instead_of_hanging(
        self, request, program
    ):
        worker = _worker()
        fleet = _fleet(request, [worker], retry_budget=1)
        worker.shutdown()
        # Give the transport a moment to notice the corpse, then scan:
        # every region must come back as an error, not a hang.
        outcomes = list(fleet.scan_iter(program))
        assert outcomes and all(o.kind == "error" for o in outcomes)

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
        server.coordinator.shard_size = 1
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            records = self._stream(
                server, {"programs": [{"id": "p", "program": MULTI}]}
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
        assert len(errors) == 1
        assert errors[0]["region"] == "Main.main:L2"
        assert errors[0]["error"]["code"] == "internal"
        assert "retry budget" in errors[0]["error"]["message"]
        assert {r["region"] for r in regions} == {
            "Main.main:L1", "Main.main:L3"
        }
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
        assert fleet["adoptions"]["wire"] == 1
        assert "leakchecker_fleet_remote_requeues 0" in text
        assert "snapshot" not in text


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
