"""``POST /analyze-batch``: NDJSON streaming, partial failure, limits.

The batch endpoint's contract under test:

* every record on the stream conforms to
  :mod:`repro.server.schema`'s record schemas, ends with exactly one
  ``summary``;
* a program or region that fails becomes an ``error`` record — the
  stream continues, the connection stays up, and the healthy remainder
  still answers (the mid-stream worker-failure test injects a real
  fleet failpoint via ``REPRO_FLEET_FAIL_REGION``);
* malformed requests are rejected with proper (non-streamed) error
  envelopes: 400 for bad JSON/shape, 413 past ``max_body``, 429 with
  ``Retry-After`` when admission is saturated.
"""

import json
import os
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.server.app import create_server
from repro.server import schema
from repro.server.worker import FAILPOINT_ENV, reset_worker_state

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


def _stream(server, payload, raw=None):
    request = urllib.request.Request(
        "http://127.0.0.1:%d/analyze-batch" % server.server_address[1],
        data=raw if raw is not None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    response = urllib.request.urlopen(request, timeout=120)
    assert response.headers["Content-Type"] == "application/x-ndjson"
    records = []
    for line in response:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


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

    def test_fleet_path_matches_pool_path(self):
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
        fleet = run(workers=2, transport="inline")
        assert pool == fleet
        assert pool["Main.main:L1"] == (["item"], 1)
        assert pool["Main.main:L2"] == ([], 0)

    def test_process_fleet_stream_reaches_eof(self):
        """The real process fleet must close the connection after the
        summary.  Regression: a pool forked lazily at first submit —
        mid-request — left worker children holding the accepted
        connection's descriptor, so clients never saw EOF."""
        with _serving(workers=2) as server:  # default process transport
            records = _stream(
                server, {"programs": [{"id": "p", "program": LEAK}]}
            )
        summary = _check_stream_shape(records)
        assert summary["ok"] is True
        (region,) = [r for r in records if r["record"] == "region"]
        assert region["leaking_sites"] == ["item"]

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

    def test_mid_stream_worker_failure_keeps_connection(self):
        """The failpoint kills one region inside the fleet worker; the
        other region of the same program and the second program still
        stream, the dead region arrives as an error record, and the
        summary closes the stream normally."""
        reset_worker_state()
        os.environ[FAILPOINT_ENV] = "Main.main:L1"
        try:
            with _serving(workers=2, transport="inline") as server:
                records = _stream(
                    server,
                    {
                        "programs": [
                            {"id": "wounded", "program": TWO_LOOPS},
                            {"id": "healthy", "program": LEAK},
                        ]
                    },
                )
        finally:
            del os.environ[FAILPOINT_ENV]
            reset_worker_state()
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


class TestBatchRejections:
    def _http_error(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        error = excinfo.value
        return error.code, error.headers, json.loads(error.read())

    def test_malformed_json_is_400_envelope(self):
        with _serving() as server:
            code, _, body = self._http_error(
                lambda: _stream(server, None, raw=b"this is not json")
            )
        assert code == 400
        schema.validate_error(1, body)
        assert body["error"]["code"] == "bad_request"

    def test_missing_programs_is_400(self):
        with _serving() as server:
            code, _, body = self._http_error(
                lambda: _stream(server, {"programs": []})
            )
        assert code == 400
        schema.validate_error(1, body)

    def test_oversized_body_is_413(self):
        with _serving(max_body=1024) as server:
            big = {"programs": [{"program": LEAK + "x" * 4096}]}
            code, _, body = self._http_error(lambda: _stream(server, big))
        assert code == 413
        schema.validate_error(1, body)
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
        schema.validate_error(1, body)
        assert body["error"]["code"] == "queue_full"
        assert int(headers["Retry-After"]) >= 1
        assert body["error"]["context"]["retry_after"] == int(
            headers["Retry-After"]
        )
