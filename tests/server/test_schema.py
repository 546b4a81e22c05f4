"""The wire protocol, validated from both sides.

Half of this file unit-tests :mod:`repro.server.schema` itself (the
mini validator, the version check, body construction); the other half
boots a real server and asserts that what actually comes over the
wire — success and error, every endpoint, with and without
``api_version`` — conforms to the same schemas the handlers built it
from.
"""

import json
import threading
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


def _url(server, path):
    return "http://127.0.0.1:%d%s" % (server.server_address[1], path)


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as response:
        return response.status, dict(response.headers), json.loads(response.read())


def _error(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    error = excinfo.value
    return error.code, error.headers, json.loads(error.read())


class TestValidator:
    def test_type_mismatch_names_path(self):
        with pytest.raises(schema.SchemaError, match=r"\$\.x"):
            schema.validate({"x": "no"}, {
                "type": "object",
                "properties": {"x": {"type": "integer"}},
            })

    def test_bool_is_not_an_integer(self):
        with pytest.raises(schema.SchemaError):
            schema.validate(True, {"type": "integer"})

    def test_missing_required(self):
        with pytest.raises(schema.SchemaError, match="missing required"):
            schema.validate({}, {"type": "object", "required": ["ok"]})

    def test_additional_properties_rejected(self):
        with pytest.raises(schema.SchemaError, match="unexpected fields"):
            schema.validate(
                {"a": 1, "b": 2},
                {
                    "type": "object",
                    "properties": {"a": {}},
                    "additionalProperties": False,
                },
            )

    def test_items_and_enum(self):
        schema.validate(["x"], {"type": "array", "items": {"enum": ["x", "y"]}})
        with pytest.raises(schema.SchemaError, match=r"\[1\]"):
            schema.validate(
                ["x", "z"], {"type": "array", "items": {"enum": ["x", "y"]}}
            )


class TestVersionNegotiation:
    def test_body_field_wins_over_query(self):
        schema.requested_version({"api_version": 1}, {"api_version": ["0"]})
        with pytest.raises(schema.SchemaError):
            schema.requested_version(
                {"api_version": 0}, {"api_version": ["1"]}
            )

    def test_query_parameter(self):
        schema.requested_version(None, {"api_version": ["1"]})
        with pytest.raises(schema.SchemaError, match="unsupported"):
            schema.requested_version(None, {"api_version": ["0"]})

    def test_default_applies(self):
        """Naming no version is fine: every response is version 1."""
        schema.requested_version(None, {})
        schema.requested_version({"program": "x"}, None)

    @pytest.mark.parametrize("bad", [0, 2, -1, "one", True])
    def test_unsupported_rejected(self, bad):
        with pytest.raises(schema.SchemaError):
            schema.requested_version({"api_version": bad}, {})

    def test_malformed_query_rejected(self):
        with pytest.raises(schema.SchemaError):
            schema.requested_version(None, {"api_version": ["soon"]})


class TestBodyConstruction:
    def test_v1_success_envelope_validates(self):
        body = schema.success_body(
            {"status": "ok", "inflight": 0, "queued": 0, "pool": {}},
        )
        assert body["api_version"] == 1 and body["ok"] is True
        schema.validate_response("healthz", body)

    def test_error_body_carries_code_and_context(self):
        body = schema.error_body(429, "full", {"retry_after": 3})
        schema.validate_error(body)
        assert body["api_version"] == 1
        assert body["error"]["code"] == "queue_full"
        assert body["error"]["context"]["retry_after"] == 3

    def test_record_validation_rejects_unknown_kind(self):
        with pytest.raises(schema.SchemaError, match="record"):
            schema.validate_record({"record": "mystery"})


class TestWireConformance:
    """What the server actually sends conforms to the schemas."""

    def test_analyze_both_versions(self):
        """Omitting ``api_version`` and naming 1 get the same envelope."""
        with _serving() as server:
            _, headers0, body0 = _post(server, "/analyze", {"program": LEAK})
            _, headers1, body1 = _post(
                server, "/analyze", {"program": LEAK, "api_version": 1}
            )
        for headers, body in ((headers0, body0), (headers1, body1)):
            schema.validate_response("analyze", body)
            assert "Deprecation" not in headers
        assert body0["data"]["scan"]["leaking_sites"] == ["item"]
        assert body1["data"]["scan"]["leaking_sites"] == ["item"]

    def test_diff_both_versions(self):
        fixed = LEAK.replace("c.slot = x;", "")
        with _serving() as server:
            _, _, body0 = _post(server, "/diff", {"before": LEAK, "after": fixed})
            _, _, body1 = _post(
                server,
                "/diff",
                {"before": LEAK, "after": fixed, "api_version": 1},
            )
        schema.validate_response("diff", body0)
        schema.validate_response("diff", body1)
        assert body0["data"]["diff"]["counts"]["fixed"] == 1
        assert body1["data"]["diff"]["counts"]["fixed"] == 1

    def test_healthz_and_metrics_query_versioning(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": LEAK})
            _, h0, health0 = _get(server, "/healthz")
            _, h1, health1 = _get(server, "/healthz?api_version=1")
            _, m0, metrics0 = _get(server, "/metrics")
            _, m1, metrics1 = _get(server, "/metrics?api_version=1")
        schema.validate_response("healthz", health0)
        schema.validate_response("healthz", health1)
        schema.validate_response("metrics", metrics0)
        schema.validate_response("metrics", metrics1)
        for headers in (h0, h1, m0, m1):
            assert "Deprecation" not in headers
        assert set(metrics1["data"]) == set(metrics0["data"])

    @pytest.mark.parametrize(
        "path, where",
        [
            ("/analyze", "body"),
            ("/analyze", "query"),
            ("/diff", "body"),
            ("/diff", "query"),
            ("/healthz", "query"),
            ("/metrics", "query"),
        ],
    )
    def test_version_zero_is_400(self, path, where):
        """The retired version-0 dialect is refused with the envelope,
        whether the body or the query string asks for it."""
        payload = {"program": LEAK, "before": LEAK, "after": LEAK}
        if where == "body":
            payload["api_version"] = 0
        else:
            path += "?api_version=0"
        with _serving() as server:
            if path.startswith(("/analyze", "/diff")):
                code, headers, body = _error(
                    lambda: _post(server, path, payload)
                )
            else:
                code, headers, body = _error(lambda: _get(server, path))
        assert code == 400
        schema.validate_error(body)
        assert body["error"]["code"] == "bad_request"
        assert "api_version" in body["error"]["message"]
        assert "Deprecation" not in headers

    @pytest.mark.parametrize("version", [0, 1])
    def test_error_envelope_conformance(self, version):
        """An empty program (version 1) and a version-0 request are
        both 400s in the one envelope."""
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server,
                    "/analyze",
                    {"program": "", "api_version": version},
                )
            )
        assert code == 400
        schema.validate_error(body)
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("version", [0, 1])
    def test_422_envelope(self, version):
        """A program that fails to parse is a 422 — unless the request
        names version 0, which is refused before any analysis."""
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server,
                    "/analyze",
                    {"program": "not a program", "api_version": version},
                )
            )
        assert code == (422 if version == 1 else 400)
        schema.validate_error(body)

    def test_unsupported_version_is_400(self):
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server, "/analyze", {"program": LEAK, "api_version": 7}
                )
            )
        assert code == 400
        schema.validate_error(body)

    def test_429_mirrors_retry_after_into_body(self):
        with _serving(jobs=1, max_queue=0) as server:
            slot = server.admission.slot()
            slot.__enter__()
            try:
                code, headers, body = _error(
                    lambda: _post(server, "/analyze", {"program": LEAK})
                )
            finally:
                slot.__exit__(None, None, None)
        assert code == 429
        schema.validate_error(body)
        assert body["error"]["code"] == "queue_full"
        assert body["error"]["context"]["retry_after"] == int(
            headers["Retry-After"]
        )

    def test_404_and_405_conform(self):
        with _serving() as server:
            code404, _, body404 = _error(lambda: _get(server, "/nope"))
            code405, headers405, body405 = _error(
                lambda: _get(server, "/analyze")
            )
        assert code404 == 404 and code405 == 405
        schema.validate_error(body404)
        schema.validate_error(body405)
        assert headers405["Allow"] == "POST"

    def test_pre_body_errors_use_the_envelope(self):
        """413 and a bad ``Content-Length`` are answered before the body
        is read, in the same envelope as every other error."""
        with _serving(max_body=64) as server:
            code413, _, body413 = _error(
                lambda: _post(server, "/analyze", {"program": LEAK})
            )
            request = urllib.request.Request(
                _url(server, "/analyze"),
                data=b"{}",
                headers={"Content-Length": "x"},
                method="POST",
            )
            code400, _, body400 = _error(
                lambda: urllib.request.urlopen(request)
            )
        assert code413 == 413 and code400 == 400
        schema.validate_error(body413)
        schema.validate_error(body400)
        assert body413["error"]["code"] == "payload_too_large"
        assert body400["error"]["code"] == "bad_request"
