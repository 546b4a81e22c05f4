""":class:`repro.client.AnalyzeClient` against a live server."""

import threading
from contextlib import contextmanager

import pytest

from repro.client import AnalyzeClient, ClientError
from repro.server.app import create_server

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

FIXED = LEAK.replace("c.slot = x;", "")


@contextmanager
def _client(api_version=1, **server_kwargs):
    server = create_server(port=0, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield AnalyzeClient(
            server.server_address[1], api_version=api_version
        ), server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestAnalyze:
    def test_returns_unwrapped_data(self):
        with _client() as (client, _server):
            data = client.analyze(LEAK)
        assert data["warm"] is False
        assert data["scan"]["leaking_sites"] == ["item"]
        assert "api_version" not in data  # envelope stripped

    def test_legacy_dialect_returns_body_verbatim(self):
        with _client(api_version=0) as (client, _server):
            data = client.analyze(LEAK)
        assert data["ok"] is True  # the legacy top-level shape
        assert data["scan"]["leaking_sites"] == ["item"]

    def test_region_and_deadline_forwarded(self):
        with _client() as (client, _server):
            data = client.analyze(LEAK, region="Main.main:L", deadline_ms=60_000)
        assert [e["loop"] for e in data["scan"]["loops"]] == ["L"]
        assert data["degraded"] is False


class TestDiff:
    def test_fixed_leak(self):
        with _client() as (client, _server):
            data = client.diff(LEAK, FIXED)
        assert data["diff"]["counts"]["fixed"] == 1


class TestBatch:
    def test_streams_records_in_order(self):
        with _client() as (client, _server):
            records = list(
                client.analyze_batch(
                    [{"id": "a", "program": LEAK}, {"id": "b", "program": FIXED}]
                )
            )
        kinds = [r["record"] for r in records]
        assert kinds[-1] == "summary"
        assert kinds.count("region") == 2
        assert records[-1]["ok"] is True

    def test_bare_strings_accepted(self):
        with _client() as (client, _server):
            records = list(client.analyze_batch([LEAK]))
        assert records[-1]["record"] == "summary"
        assert records[-1]["programs"] == 1


class TestObservability:
    def test_healthz(self):
        with _client() as (client, _server):
            data = client.healthz()
        assert data["status"] == "ok"

    def test_metrics_json_and_prometheus(self):
        with _client() as (client, _server):
            client.analyze(LEAK)
            snapshot = client.metrics()
            text = client.metrics(prometheus=True)
        assert snapshot["counters"]["analyze_requests"] == 1
        assert "# TYPE leakchecker_analyze_requests counter" in text

    def test_legacy_metrics_unenveloped(self):
        with _client(api_version=0) as (client, _server):
            snapshot = client.metrics()
        assert "counters" in snapshot


class TestErrors:
    def test_analysis_error_carries_code(self):
        with _client() as (client, _server):
            with pytest.raises(ClientError) as excinfo:
                client.analyze("not a program")
        assert excinfo.value.status == 422
        assert excinfo.value.code == "analysis_error"

    def test_legacy_error_parses_kind(self):
        with _client(api_version=0) as (client, _server):
            with pytest.raises(ClientError) as excinfo:
                client.analyze("not a program")
        assert excinfo.value.status == 422
        assert excinfo.value.code == "analysis"

    def test_oversized_body_answers_in_client_dialect(self):
        """413 fires before the body is parsed, so the version must
        travel in the query string for the error to come back in the
        dialect the client speaks (regression: v1 clients used to get
        the endpoint-default v0 envelope)."""
        with _client(max_body=512) as (client, _server):
            with pytest.raises(ClientError) as excinfo:
                client.analyze(LEAK + "x" * 2048)
        assert excinfo.value.status == 413
        assert excinfo.value.code == "payload_too_large"
        with _client(api_version=0, max_body=512) as (client, _server):
            with pytest.raises(ClientError) as excinfo:
                client.analyze(LEAK + "x" * 2048)
        assert excinfo.value.code == "too_large"

    def test_queue_full_carries_retry_after(self):
        with _client(jobs=1, max_queue=0) as (client, server):
            slot = server.admission.slot()
            slot.__enter__()
            try:
                with pytest.raises(ClientError) as excinfo:
                    client.analyze(LEAK)
            finally:
                slot.__exit__(None, None, None)
        error = excinfo.value
        assert error.status == 429
        assert error.code == "queue_full"
        assert error.retry_after >= 1
        assert error.context["retry_after"] == error.retry_after

    def test_base_url_forms(self):
        assert AnalyzeClient(8421).base_url == "http://127.0.0.1:8421"
        assert (
            AnalyzeClient("localhost:9").base_url == "http://localhost:9"
        )
        assert (
            AnalyzeClient("http://h:1/").base_url == "http://h:1"
        )


class TestRetryAfterParsing:
    """Regression: ``Retry-After: 1.5`` used to hit ``int("1.5")`` ->
    ``ValueError`` and silently drop the hint to ``None``."""

    def _parse(self, raw):
        from repro.client import _parse_retry_after

        return _parse_retry_after(raw)

    def test_whole_seconds_stay_int(self):
        assert self._parse("3") == 3
        assert isinstance(self._parse("3"), int)

    def test_fractional_seconds_accepted(self):
        assert self._parse("1.5") == 1.5

    def test_integral_float_normalizes_to_int(self):
        assert self._parse("2.0") == 2
        assert isinstance(self._parse("2.0"), int)

    def test_negative_clamps_to_zero(self):
        assert self._parse("-4") == 0
        assert self._parse("-0.5") == 0

    def test_garbage_and_absence_are_none(self):
        assert self._parse(None) is None
        assert self._parse("soon") is None
        # An HTTP-date Retry-After is legal but unsupported: None, not
        # a crash.
        assert self._parse("Fri, 08 Aug 2026 00:00:00 GMT") is None

    def test_non_finite_rejected(self):
        assert self._parse("inf") is None
        assert self._parse("-inf") is None
        assert self._parse("nan") is None
