"""The wire protocol, validated from both sides.

Half of this file unit-tests :mod:`repro.server.schema` itself (the
mini validator, version negotiation, body construction); the other
half boots a real server and asserts that what actually comes over the
wire — success and error, both dialects, every endpoint — conforms to
the same schemas the handlers built it from.
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
        assert schema.requested_version(
            {"api_version": 1}, {"api_version": ["0"]}
        ) == 1

    def test_query_parameter(self):
        assert schema.requested_version(None, {"api_version": ["1"]}) == 1

    def test_default_applies(self):
        assert schema.requested_version(None, {}) == 0
        assert schema.requested_version(None, {}, default=1) == 1

    @pytest.mark.parametrize("bad", [2, -1, "one", True])
    def test_unsupported_rejected(self, bad):
        with pytest.raises(schema.SchemaError):
            schema.requested_version({"api_version": bad}, {})

    def test_malformed_query_rejected(self):
        with pytest.raises(schema.SchemaError):
            schema.requested_version(None, {"api_version": ["soon"]})


class TestBodyConstruction:
    def test_v1_success_envelope_validates(self):
        body = schema.success_body(
            "healthz", 1,
            {"status": "ok", "inflight": 0, "queued": 0, "pool": {}},
        )
        assert body["api_version"] == 1 and body["ok"] is True
        schema.validate_response("healthz", 1, body)

    def test_v0_success_is_legacy_shape(self):
        body = schema.success_body(
            "healthz", 0,
            {"status": "ok", "inflight": 0, "queued": 0, "pool": {}},
        )
        assert body["ok"] is True and "data" not in body
        schema.validate_response("healthz", 0, body)

    def test_v0_metrics_has_no_ok_field(self):
        body = schema.success_body(
            "metrics", 0, {"counters": {}, "latency": {}, "gauges": {}}
        )
        assert "ok" not in body
        schema.validate_response("metrics", 0, body)

    def test_error_bodies_both_dialects(self):
        v1 = schema.error_body(1, 429, "full", {"retry_after": 3})
        schema.validate_error(1, v1)
        assert v1["error"]["code"] == "queue_full"
        assert v1["error"]["context"]["retry_after"] == 3
        v0 = schema.error_body(0, 429, "full", {"retry_after": 3})
        schema.validate_error(0, v0)
        assert v0["kind"] == "queue_full"
        assert v0["retry_after"] == 3

    def test_deprecation_headers_only_on_v0(self):
        assert schema.deprecation_headers(1) == {}
        headers = schema.deprecation_headers(0)
        assert headers["Deprecation"] == 'version="0"'

    def test_record_validation_rejects_unknown_kind(self):
        with pytest.raises(schema.SchemaError, match="record"):
            schema.validate_record({"record": "mystery"})


class TestWireConformance:
    """What the server actually sends conforms to the schemas."""

    def test_analyze_both_versions(self):
        with _serving() as server:
            _, headers0, body0 = _post(server, "/analyze", {"program": LEAK})
            _, headers1, body1 = _post(
                server, "/analyze", {"program": LEAK, "api_version": 1}
            )
        schema.validate_response("analyze", 0, body0)
        assert headers0.get("Deprecation") == 'version="0"'
        schema.validate_response("analyze", 1, body1)
        assert "Deprecation" not in headers1
        # Same scan either way, just framed differently.
        assert body1["data"]["scan"]["leaking_sites"] == body0["scan"][
            "leaking_sites"
        ]

    def test_diff_both_versions(self):
        fixed = LEAK.replace("c.slot = x;", "")
        with _serving() as server:
            _, _, body0 = _post(server, "/diff", {"before": LEAK, "after": fixed})
            _, _, body1 = _post(
                server,
                "/diff",
                {"before": LEAK, "after": fixed, "api_version": 1},
            )
        schema.validate_response("diff", 0, body0)
        schema.validate_response("diff", 1, body1)
        assert body1["data"]["diff"]["counts"]["fixed"] == 1

    def test_healthz_and_metrics_query_versioning(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": LEAK})
            _, h0, health0 = _get(server, "/healthz")
            _, h1, health1 = _get(server, "/healthz?api_version=1")
            _, _, metrics0 = _get(server, "/metrics")
            _, _, metrics1 = _get(server, "/metrics?api_version=1")
        schema.validate_response("healthz", 0, health0)
        assert h0.get("Deprecation") == 'version="0"'
        schema.validate_response("healthz", 1, health1)
        assert "Deprecation" not in h1
        schema.validate_response("metrics", 0, metrics0)
        schema.validate_response("metrics", 1, metrics1)
        # Same snapshot, different framing.
        assert set(metrics1["data"]) == set(metrics0)

    @pytest.mark.parametrize("version", [0, 1])
    def test_error_envelope_conformance(self, version):
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server,
                    "/analyze",
                    {"program": "", "api_version": version},
                )
            )
        assert code == 400
        schema.validate_error(version, body)
        if version == 1:
            assert body["error"]["code"] == "bad_request"
        else:
            assert body["kind"] == "bad_request"

    @pytest.mark.parametrize("version", [0, 1])
    def test_422_envelope(self, version):
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server,
                    "/analyze",
                    {"program": "not a program", "api_version": version},
                )
            )
        assert code == 422
        schema.validate_error(version, body)

    def test_unsupported_version_is_400(self):
        with _serving() as server:
            code, _, body = _error(
                lambda: _post(
                    server, "/analyze", {"program": LEAK, "api_version": 7}
                )
            )
        assert code == 400

    def test_429_mirrors_retry_after_into_body(self):
        with _serving(jobs=1, max_queue=0) as server:
            slot = server.admission.slot()
            slot.__enter__()
            try:
                code, headers, body = _error(
                    lambda: _post(
                        server,
                        "/analyze",
                        {"program": LEAK, "api_version": 1},
                    )
                )
            finally:
                slot.__exit__(None, None, None)
        assert code == 429
        schema.validate_error(1, body)
        assert body["error"]["code"] == "queue_full"
        assert body["error"]["context"]["retry_after"] == int(
            headers["Retry-After"]
        )

    def test_404_and_405_conform(self):
        with _serving() as server:
            code404, _, body404 = _error(
                lambda: _get(server, "/nope?api_version=1")
            )
            code405, headers405, body405 = _error(
                lambda: _get(server, "/analyze?api_version=1")
            )
        assert code404 == 404 and code405 == 405
        schema.validate_error(1, body404)
        schema.validate_error(1, body405)
        assert headers405["Allow"] == "POST"
