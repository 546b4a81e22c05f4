"""``POST /analyze-batch``: NDJSON streaming, partial failure, limits.

The batch endpoint's contract under test:

* every record on the stream conforms to
  :mod:`repro.server.schema`'s record schemas, ends with exactly one
  ``summary``;
* records follow the entry order, and ``serve`` and ``serve --workers
  N`` stream the same records for the same batch, the first time and
  on every repeat;
* a program or region that fails becomes an ``error`` record — the
  stream continues, the connection stays up, and the healthy remainder
  still answers (the mid-stream worker-failure test arms a ``raise``
  failpoint in a fleet worker);
* malformed requests are rejected with proper (non-streamed) error
  envelopes: 400 for bad JSON/shape, 413 past ``max_body``, 429 with
  ``Retry-After`` when admission is saturated.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.server.app import create_server
from repro.server import schema

LEAK = """
entry Main.main;
class Main {
  static method main() {
    c = new Cache @cache;
    loop L (*) {
      x = new Item @item;
      c.slot = x;
    }
  }
}
class Cache { field slot; }
class Item { }
"""

CLEAN = """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      x = new Item @item;
    }
  }
}
class Item { }
"""

TWO_LOOPS = """
entry Main.main;
class Main {
  static method main() {
    c = new Cache @cache;
    loop L1 (*) {
      x = new Item @item;
      c.slot = x;
    }
    loop L2 (*) {
      y = new Temp @temp;
    }
  }
}
class Cache { field slot; }
class Item { }
class Temp { }
"""


#: Parses and validates, but has nothing to build a call graph from.
NO_ENTRY = TWO_LOOPS.replace("entry Main.main;", "")


@contextmanager
def _serving(**kwargs):
    server = create_server(port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _stream(server, payload, raw=None, timeout=120):
    request = urllib.request.Request(
        "http://127.0.0.1:%d/analyze-batch" % server.server_address[1],
        data=raw if raw is not None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    records = []
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        for line in response:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _wait_until_dead(pid, timeout=5.0):
    """Until ``pid`` is a zombie or gone (Linux; elsewhere, no wait)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open("/proc/%d/stat" % pid) as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            return
        time.sleep(0.01)


def _check_stream_shape(records):
    """Every record validates; exactly one summary, and it is last."""
    for record in records:
        schema.validate_record(record)
    assert [r["record"] for r in records].count("summary") == 1
    assert records[-1]["record"] == "summary"
    return records[-1]


class TestBatchStreaming:
    def test_multi_program_stream(self):
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "leaky", "program": LEAK},
                        {"id": "clean", "program": CLEAN},
                    ]
                },
            )
        summary = _check_stream_shape(records)
        regions = [r for r in records if r["record"] == "region"]
        assert {r["program_id"] for r in regions} == {"leaky", "clean"}
        leaky = next(r for r in regions if r["program_id"] == "leaky")
        clean = next(r for r in regions if r["program_id"] == "clean")
        assert leaky["leaking_sites"] == ["item"]
        assert leaky["findings"] == 1
        assert clean["leaking_sites"] == []
        assert summary["ok"] is True
        assert summary["programs"] == 2
        assert summary["regions"] == 2
        assert summary["findings"] == 1
        assert summary["errors"] == 0

    def test_fleet_path_matches_pool_path(self, threaded_workers):
        """Same request, fleet-sharded vs in-process: identical region
        payloads (order aside)."""

        def run(**server_kwargs):
            with _serving(**server_kwargs) as server:
                records = _stream(
                    server,
                    {"programs": [{"id": "p", "program": TWO_LOOPS}]},
                )
            by_region = {
                r["region"]: (r["leaking_sites"], r["findings"])
                for r in records
                if r["record"] == "region"
            }
            return by_region

        pool = run()
        fleet = run(worker_hosts=threaded_workers(2))
        assert pool == fleet
        assert pool["Main.main:L1"] == (["item"], 1)
        assert pool["Main.main:L2"] == ([], 0)

    def test_process_fleet_stream_reaches_eof(self):
        """The forked local fleet must close the connection after the
        summary.  Regression: a pool forked lazily at first submit —
        mid-request — left worker children holding the accepted
        connection's descriptor, so clients never saw EOF."""
        with _serving(workers=2) as server:
            records = _stream(
                server, {"programs": [{"id": "p", "program": LEAK}]}
            )
        summary = _check_stream_shape(records)
        assert summary["ok"] is True
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["leaking_sites"] == ["item"]

    def test_stream_after_worker_death_reaches_eof(self):
        """Regression: a worker re-forked mid-request kept the daemon's
        listener and the batch connection open, so the next stream after
        a worker died never ended.  A re-forked worker now holds one
        socket, its own."""
        from repro.core.regions import region_text
        from repro.core.scan import scan_all_loops
        from repro.lang import parse_program

        # A program the pool has not seen, so the fleet runs it.
        unseen = TWO_LOOPS + "\nclass Unseen { }"
        with _serving(workers=1) as server:
            _stream(server, {"programs": [{"id": "p", "program": TWO_LOOPS}]})
            dead = set(server.fleet_snapshot()["per_worker"])
            for pid in dead:
                os.kill(int(pid), signal.SIGKILL)
                _wait_until_dead(int(pid))
            started = time.monotonic()
            records = _stream(
                server,
                {"programs": [{"id": "p", "program": unseen}]},
                timeout=5,
            )
            elapsed = time.monotonic() - started
            fleet = server.fleet_snapshot()
        assert elapsed < 5
        summary = _check_stream_shape(records)
        assert summary["ok"] is True
        serial = scan_all_loops(parse_program(unseen))
        assert sorted(
            (r["region"], r["leaking_sites"])
            for r in records
            if r["record"] == "region"
        ) == sorted(
            (region_text(spec), list(report.leaking_site_labels))
            for spec, report in serial.entries
        )
        assert fleet["remote_reconnects"] >= 1
        (reforked,) = set(fleet["per_worker"]) - dead
        if os.path.isdir("/proc/%s/fd" % reforked):
            links = [
                os.readlink("/proc/%s/fd/%s" % (reforked, fd))
                for fd in os.listdir("/proc/%s/fd" % reforked)
            ]
            assert len([l for l in links if l.startswith("socket:")]) == 1

    def test_include_reports_embeds_full_report(self):
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [{"id": "p", "program": LEAK}],
                    "include_reports": True,
                },
            )
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["report"]["findings"]
        assert region["report"]["region"]

    def test_region_selection_per_program(self):
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "p", "program": TWO_LOOPS, "region": "Main.main:L2"}
                    ]
                },
            )
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["region"] == "Main.main:L2"
        assert region["leaking_sites"] == []


class TestBatchPartialFailure:
    def test_unparseable_program_streams_error_and_continues(self):
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "bad", "program": "syntax error"},
                        {"id": "good", "program": LEAK},
                    ]
                },
            )
        summary = _check_stream_shape(records)
        (error,) = [r for r in records if r["record"] == "error"]
        assert error["program_id"] == "bad"
        assert error["error"]["code"] == "analysis_error"
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["program_id"] == "good"
        assert region["leaking_sites"] == ["item"]
        assert summary["ok"] is False
        assert summary["errors"] == 1

    def test_inheritance_cycle_costs_one_error_record(self):
        """A cyclic ``extends`` chain is one ``analysis_error`` record,
        answered well inside the client's timeout; the next program of
        the batch is still checked."""
        cyclic = LEAK.replace("class Cache {", "class Cache extends Item {")
        cyclic = cyclic.replace("class Item { }", "class Item extends Cache { }")
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "cyclic", "program": cyclic},
                        {"id": "good", "program": LEAK},
                    ]
                },
                timeout=10,
            )
        summary = _check_stream_shape(records)
        (error,) = [r for r in records if r["record"] == "error"]
        assert error["program_id"] == "cyclic"
        assert error["error"]["code"] == "analysis_error"
        assert "extends cycle: Cache extends Item extends Cache" in (
            error["error"]["message"]
        )
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["program_id"] == "good"
        assert region["leaking_sites"] == ["item"]
        assert summary["errors"] == 1
        assert summary["programs"] == 2

    @pytest.mark.parametrize(
        "javalib", ["false", "no", 1, [], {}],
        ids=["string-false", "string-no", "int", "list", "object"],
    )
    def test_non_boolean_javalib_is_a_bad_request_record(self, javalib):
        """Regression: a ``javalib`` that is not a JSON boolean was read
        as true and linked the library in.  It is that entry's
        ``bad_request`` record; the batch goes on."""
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "p", "program": LEAK, "javalib": javalib},
                        {"id": "q", "program": LEAK, "javalib": False},
                    ]
                },
            )
        summary = _check_stream_shape(records)
        (error,) = [r for r in records if r["record"] == "error"]
        assert error["program_id"] == "p"
        assert error["error"]["code"] == "bad_request"
        assert "javalib" in error["error"]["message"]
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["program_id"] == "q"
        assert summary["errors"] == 1

    def test_unknown_region_is_an_error_record(self):
        with _serving() as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "p1", "program": LEAK, "region": "Nope.no:X"},
                        {"id": "p2", "program": LEAK},
                    ]
                },
            )
        summary = _check_stream_shape(records)
        (error,) = [r for r in records if r["record"] == "error"]
        assert error["program_id"] == "p1"
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["program_id"] == "p2"
        assert summary["errors"] == 1

    def test_mid_stream_worker_failure_keeps_connection(
        self, threaded_workers
    ):
        """The failpoint kills one region inside the fleet worker; the
        other region of the same program and the second program still
        stream, the dead region arrives as an error record, and the
        summary closes the stream normally."""
        with _serving(
            worker_hosts=threaded_workers(2, "raise:Main.main:L1")
        ) as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "wounded", "program": TWO_LOOPS},
                        {"id": "healthy", "program": LEAK},
                    ]
                },
            )
        summary = _check_stream_shape(records)
        errors = [r for r in records if r["record"] == "error"]
        assert len(errors) == 1
        assert errors[0]["program_id"] == "wounded"
        assert errors[0]["region"] == "Main.main:L1"
        assert errors[0]["error"]["code"] == "internal"
        assert "failpoint" in errors[0]["error"]["message"]
        regions = [r for r in records if r["record"] == "region"]
        survived = {(r["program_id"], r["region"]) for r in regions}
        assert ("wounded", "Main.main:L2") in survived
        assert ("healthy", "Main.main:L") in survived
        assert summary["ok"] is False
        assert summary["errors"] == 1
        assert summary["regions"] == 2


    @pytest.mark.parametrize("fleet", [True, False], ids=["fleet", "pool"])
    def test_program_that_cannot_warm_costs_only_itself(
        self, fleet, threaded_workers
    ):
        """A program the analysis rejects outright (no entry point) is
        one ``analysis_error`` record; the batch goes on, and the next
        program's regions equal a serial scan."""
        from repro.core.regions import region_text
        from repro.core.scan import scan_all_loops
        from repro.lang import parse_program

        hosts = threaded_workers() if fleet else None
        with _serving(worker_hosts=hosts) as server:
            records = _stream(
                server,
                {
                    "programs": [
                        {"id": "no-entry", "program": NO_ENTRY},
                        {"id": "good", "program": TWO_LOOPS},
                    ]
                },
            )
            server_errors = server.metrics.counters["server_errors"]
        summary = _check_stream_shape(records)
        (error,) = [r for r in records if r["record"] == "error"]
        assert error["program_id"] == "no-entry"
        assert error["error"]["code"] == "analysis_error"
        assert "no entry point" in error["error"]["message"]
        serial = scan_all_loops(parse_program(TWO_LOOPS))
        regions = sorted(
            (r["index"], r["region"], r["leaking_sites"], r["findings"])
            for r in records
            if r["record"] == "region"
        )
        assert regions == [
            (
                index,
                region_text(spec),
                list(report.leaking_site_labels),
                len(report.findings),
            )
            for index, (spec, report) in enumerate(serial.entries)
        ]
        assert all(r["program_id"] == "good" for r in records[1:-1])
        assert summary["errors"] == 1
        assert summary["programs"] == 2
        assert server_errors == 0


class TestOneWarmStateStore:
    """The session pool is the daemon's one per-program store: a text
    the fleet ran is registered in its entries, under its bound."""

    def test_batch_program_takes_one_pool_slot(self, threaded_workers):
        from repro.client import AnalyzeClient

        with _serving(worker_hosts=threaded_workers()) as server:
            _stream(server, {"programs": [{"id": "p", "program": LEAK}]})
            after_batch = server.gauges()["pool_sessions"]
            AnalyzeClient(server.server_address[1]).analyze(LEAK)
            gauges = server.gauges()
            fleet = server.fleet_snapshot()
        assert after_batch == 1
        # Seen by both endpoints: still one slot.
        assert gauges["pool_sessions"] == 1
        assert "programs_cached" not in fleet
        assert "programs_evicted" not in fleet


class TestBatchRejections:
    def _http_error(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        error = excinfo.value
        return error.code, error.headers, json.loads(error.read())

    def test_malformed_json_is_400_envelope(self):
        # The timeout turns a request that is never answered into a
        # failure instead of a hang.
        bodies = (
            b"this is not json",
            b"[" * 100_000,
            b'{"a": ' + b"1" * 5000 + b"}",
        )
        with _serving() as server:
            for raw in bodies:
                code, _, body = self._http_error(
                    lambda: _stream(server, None, raw=raw, timeout=10)
                )
                assert code == 400
                schema.validate_error(body)
                assert body["error"]["code"] == "bad_request"

    def test_non_string_id_is_400_naming_the_entry(self):
        """Regression: an ``id`` that is not a string aborted the stream
        after the first record with an ``internal`` error, dropping the
        other entries.  It is a 400 before the stream opens."""
        payload = {
            "programs": [
                {"id": "a", "program": LEAK},
                {"id": 5, "program": LEAK},
                {"id": "b", "program": CLEAN},
            ]
        }
        with _serving() as server:
            code, _, body = self._http_error(lambda: _stream(server, payload))
            server_errors = server.metrics.counters.get("server_errors", 0)
        assert code == 400
        schema.validate_error(body)
        assert body["error"]["code"] == "bad_request"
        assert "programs[1].id" in body["error"]["message"]
        assert server_errors == 0

    def test_deadline_too_large_for_a_float_is_400(self):
        """Regression: a 400-digit ``deadline_ms`` opened the stream and
        ended it with one ``internal`` record and no summary.  It is a
        400 naming the field, before the stream opens."""
        payload = {
            "programs": [{"id": "a", "program": LEAK}],
            "deadline_ms": 10**400,
        }
        with _serving() as server:
            code, _, body = self._http_error(lambda: _stream(server, payload))
            server_errors = server.metrics.counters.get("server_errors", 0)
        assert code == 400
        schema.validate_error(body)
        assert body["error"]["code"] == "bad_request"
        assert "deadline_ms" in body["error"]["message"]
        assert server_errors == 0

    @pytest.mark.parametrize(
        "include_reports", ["false", "no", 0, 1, [], {}],
        ids=["string-false", "string-no", "zero", "one", "list", "object"],
    )
    def test_non_boolean_include_reports_is_400(self, include_reports):
        """Regression: ``include_reports`` was read with ``bool()``, so
        ``"false"`` and ``"no"`` streamed a full report in every region
        record.  Any value but a JSON boolean is a 400 naming the field,
        before the stream opens."""
        payload = {
            "programs": [{"id": "a", "program": LEAK}],
            "include_reports": include_reports,
        }
        with _serving() as server:
            code, _, body = self._http_error(lambda: _stream(server, payload))
        assert code == 400
        schema.validate_error(body)
        assert body["error"]["code"] == "bad_request"
        assert "include_reports" in body["error"]["message"]

    @pytest.mark.parametrize("include_reports", [None, False])
    def test_null_or_false_include_reports_streams_no_report(
        self, include_reports
    ):
        payload = {
            "programs": [{"id": "a", "program": LEAK}],
            "include_reports": include_reports,
        }
        with _serving() as server:
            records = _stream(server, payload)
        (region,) = [r for r in records if r["record"] == "region"]
        assert "report" not in region

    def test_missing_programs_is_400(self):
        with _serving() as server:
            code, _, body = self._http_error(
                lambda: _stream(server, {"programs": []})
            )
        assert code == 400
        schema.validate_error(body)

    def test_oversized_body_is_413(self):
        with _serving(max_body=1024) as server:
            big = {"programs": [{"program": LEAK + "x" * 4096}]}
            code, _, body = self._http_error(lambda: _stream(server, big))
        assert code == 413
        schema.validate_error(body)
        assert body["error"]["code"] == "payload_too_large"

    def test_saturated_queue_is_429_with_retry_after(self):
        with _serving(jobs=1, max_queue=0) as server:
            slot = server.admission.slot()
            slot.__enter__()
            try:
                code, headers, body = self._http_error(
                    lambda: _stream(
                        server, {"programs": [{"program": LEAK}]}
                    )
                )
            finally:
                slot.__exit__(None, None, None)
        assert code == 429
        schema.validate_error(body)
        assert body["error"]["code"] == "queue_full"
        assert int(headers["Retry-After"]) >= 1
        assert body["error"]["context"]["retry_after"] == int(
            headers["Retry-After"]
        )


def _one_stream_entries():
    """The 13 corpus apps, the five ×8 retention tilings, an unparseable
    entry, an unknown region and an inheritance cycle."""
    from repro.bench.apps import build_app, corpus_names, retention_names
    from repro.bench.scale import build_scaled

    entries = [
        {"id": name, "program": build_app(name).source}
        for name in corpus_names()
    ]
    entries += [
        {"id": "%s-x8" % name, "program": build_scaled(name, factor=8).source}
        for name in retention_names()
    ]
    cyclic = LEAK.replace("class Cache {", "class Cache extends Item {")
    cyclic = cyclic.replace("class Item { }", "class Item extends Cache { }")
    entries += [
        {"id": "unparseable", "program": "class {"},
        {"id": "unknown-region", "program": CLEAN, "region": "Nope.no:X"},
        {"id": "cycle", "program": cyclic},
    ]
    return entries


def _canonical_stream(records):
    """The stream as bytes, reports canonicalized and ``elapsed_ms``
    dropped: the run-independent form two daemons must agree on."""
    from repro.core.canonical import canonical_report_dict

    _check_stream_shape(records)
    lines = []
    for record in records:
        record = dict(record)
        record.pop("elapsed_ms", None)
        if "report" in record:
            record["report"] = canonical_report_dict(record["report"])
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines).encode("utf-8")


class TestOneStream:
    def test_serve_and_fleet_stream_the_same_bytes(self, monkeypatch):
        """One ``/analyze-batch`` with reports, to ``serve`` and to
        ``serve --workers 2``: byte-identical streams in entry order.
        Sent again, still identical, and never to the fleet: the
        fleet-backed daemon scans each program here once and stores it,
        and from then on neither daemon parses a stored program."""
        import repro.server.pool as pool_module

        entries = _one_stream_entries()
        payload = {"programs": entries, "include_reports": True}
        # Room for every entry, so that no repeat is an eviction's miss.
        pooled = {"max_sessions": 32}
        with _serving(**pooled) as serial, _serving(
            workers=2, **pooled
        ) as fleet:
            expected = _canonical_stream(_stream(serial, payload))
            assert _canonical_stream(_stream(fleet, payload)) == expected
            shards = fleet.fleet_snapshot()["shards_total"]
            assert shards == len(entries)
            # The fleet daemon's second stream scans here and stores.
            assert _canonical_stream(_stream(fleet, payload)) == expected

            stored = {
                entry["program"] for entry in entries
                if entry["id"] not in ("unparseable", "unknown-region", "cycle")
            }
            parse = pool_module.parse_program

            def no_repeat_parses(source):
                if source in stored:
                    raise AssertionError("a stored program was parsed")
                return parse(source)

            monkeypatch.setattr(pool_module, "parse_program", no_repeat_parses)
            assert _canonical_stream(_stream(serial, payload)) == expected
            assert _canonical_stream(_stream(fleet, payload)) == expected
            assert fleet.fleet_snapshot()["shards_total"] == shards
        order = [
            r["program_id"] for r in json.loads(
                "[" + expected.decode("utf-8").replace("\n", ",") + "]"
            )[:-1]
        ]
        positions = [[e["id"] for e in entries].index(i) for i in order]
        assert positions == sorted(positions)


def _descriptors():
    return sorted(os.listdir("/proc/self/fd"))


def _threads():
    """This process's threads, but the daemon executor's, by name; those
    come and go within the executor's own bound."""
    import threading

    return sorted(
        thread.name for thread in threading.enumerate()
        if not thread.name.startswith("repro-serve")
    )


def _children():
    """Pids of this process's live (not zombie) children."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            children.add(int(entry))
    return children


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)
class TestFleetSoak:
    def test_many_unseen_programs_leak_nothing(self):
        """200 batches of never-seen small programs through ``serve
        --workers 2 --max-sessions 8``: every one answers, the daemon's
        descriptors, threads and children return to their baseline, the
        workers are never re-forked, and the pool stays bounded."""
        import threading

        def program(n):
            return LEAK.replace("@item", "@item%d" % n)

        with _serving(workers=2, max_sessions=8) as server:
            for n in range(4):  # warm the executor's threads
                _stream(server, {"programs": [{"program": program(n)}]})
            baseline = (_descriptors(), _threads(), _children())
            workers = set(server.fleet_snapshot()["per_worker"])
            sessions = []
            for n in range(4, 204):
                records = _stream(server, {"programs": [{"program": program(n)}]})
                (region,) = [r for r in records if r["record"] == "region"]
                assert region["leaking_sites"] == ["item%d" % n]
                sessions.append(server.gauges()["pool_sessions"])
            after = (_descriptors(), _threads(), _children())
            fleet = server.fleet_snapshot()
            executor = [
                t for t in threading.enumerate()
                if t.name.startswith("repro-serve")
            ]
            assert len(executor) <= server._executor._max_workers
        assert after == baseline
        assert set(fleet["per_worker"]) == workers
        assert {int(pid) for pid in workers} == baseline[2]
        assert fleet["shards_total"] == 204
        assert fleet["remote_reconnects"] == 0
        assert max(sessions) <= 8
