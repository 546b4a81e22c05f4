"""End-to-end tests for the HTTP analysis daemon."""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.core.config import DetectorConfig
from repro.server.app import create_server

_LEAK = """
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

_FIXED = _LEAK.replace("c.slot = x;", "")

#: Two leaking sites in mutual containment — the pivot SCC regression
#: shape.  Exactly one representative must be reported.
_CYCLE = """
entry Main.main;
class Main { static method main() {
    h = new Holder @holder;
    loop L (*) {
      a = new Node @a; b = new Node @b;
      a.next = b; b.prev = a; h.slot = a;
    } } }
class Holder { field slot; }
class Node { field next; field prev; }
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
        return response.status, json.loads(response.read())


def _get(server, path, headers=None):
    request = urllib.request.Request(_url(server, path), headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, response.read().decode("utf-8")


def _error(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    error = excinfo.value
    return error.code, error.headers, json.loads(error.read())


class TestAnalyze:
    def test_cold_scan_reports_leak(self):
        with _serving() as server:
            status, body = _post(server, "/analyze", {"program": _LEAK})
        assert status == 200
        assert body["ok"] is True
        assert body["warm"] is False
        assert body["degraded"] is False
        assert body["scan"]["leaking_sites"] == ["item"]
        assert body["program_digest"]

    def test_warm_request_serves_without_rebuilding(self):
        """The acceptance criterion: a repeat of an unchanged program is
        answered from the session pool via the incremental fast path —
        no call graph, no points-to — proven by the scan profile's
        counters in the response itself."""
        with _serving() as server:
            _post(server, "/analyze", {"program": _LEAK})
            status, body = _post(server, "/analyze", {"program": _LEAK})
        assert status == 200
        assert body["warm"] is True
        counters = body["scan"]["profile"]["counters"]
        assert counters.get("incremental_fast_path") == 1
        assert counters.get("incremental_served") == 1
        assert counters.get("incremental_rechecked", 0) == 0
        assert counters.get("incremental_full_fallback", 0) == 0
        assert body["scan"]["leaking_sites"] == ["item"]

    def test_region_limited_request(self):
        with _serving() as server:
            status, body = _post(
                server,
                "/analyze",
                {"program": _LEAK, "region": "Main.main:L"},
            )
        assert status == 200
        assert [entry["loop"] for entry in body["scan"]["loops"]] == ["L"]
        assert body["scan"]["leaking_sites"] == ["item"]

    def test_two_site_cycle_reports_one_representative(self):
        """The pivot SCC fix, observed through the server path: the
        mutual-containment cycle yields exactly one finding."""
        with _serving() as server:
            _, cold = _post(server, "/analyze", {"program": _CYCLE})
            _, warm = _post(server, "/analyze", {"program": _CYCLE})
        assert cold["scan"]["leaking_sites"] == ["a"]
        assert warm["scan"]["leaking_sites"] == ["a"]
        assert warm["warm"] is True

    def test_javalib_flag(self):
        source = """
        entry Main.main;
        class Main { static method main() {
            m = new HashMap @map;
            call m.hmInit() @mi;
            loop L (*) {
              x = new Item @item;
              call m.put(x, x) @do_put;
            } } }
        class Item { }
        """
        with _serving() as server:
            status, body = _post(
                server, "/analyze", {"program": source, "javalib": True}
            )
        assert status == 200
        assert body["scan"]["leaking_sites"] == ["item"]

    def test_resource_leak_surfaces_through_analyze(self):
        """A FileStream opened every iteration and never closed comes
        back as a ``resource-leak`` finding (distinct kind, suffixed
        fingerprint) — the docs' curl example, end to end."""
        source = """
        entry Main.main;
        class Main { static method main() {
            loop L (*) {
              f = new FileStream @stream;
              call f.open() @do_open;
              d = call f.read() @do_read;
            } } }
        """
        with _serving() as server:
            _, cold = _post(
                server, "/analyze", {"program": source, "javalib": True}
            )
            _, warm = _post(
                server, "/analyze", {"program": source, "javalib": True}
            )
        for body in (cold, warm):
            assert body["ok"] is True
            assert body["scan"]["leaking_sites"] == ["stream"]
            (entry,) = [
                loop for loop in body["scan"]["loops"] if loop["loop"] == "L"
            ]
            (finding,) = entry["report"]["findings"]
            assert finding["kind"] == "resource-leak"
            assert finding["site"] == "stream"
            (triaged,) = [
                t
                for t in body["scan"]["triage"]
                if t["kind"] == "resource-leak"
            ]
            assert triaged["fingerprint"].endswith("|resource-leak")
        assert warm["warm"] is True


class TestDeadline:
    def test_expired_deadline_degrades_instead_of_failing(self):
        """A zero deadline on a demand-driven server: every refinement
        query answers from the sound fallback, the response completes
        with ``degraded: true`` and the expiry counters set."""
        config = DetectorConfig(demand_driven=True)
        with _serving(config=config) as server:
            status, body = _post(
                server, "/analyze", {"program": _LEAK, "deadline_ms": 0}
            )
        assert status == 200
        assert body["ok"] is True
        assert body["degraded"] is True
        counters = body["scan"]["profile"]["counters"]
        assert counters.get("deadline_expiries", 0) > 0
        assert counters.get("andersen_fallbacks", 0) > 0
        # Degraded, not wrong: the fallback is sound.
        assert body["scan"]["leaking_sites"] == ["item"]

    def test_server_wide_deadline_applies_without_request_opt_in(self):
        config = DetectorConfig(demand_driven=True)
        with _serving(config=config, deadline_ms=0) as server:
            status, body = _post(server, "/analyze", {"program": _LEAK})
        assert status == 200
        assert body["degraded"] is True

    def test_generous_deadline_not_degraded(self):
        config = DetectorConfig(demand_driven=True)
        with _serving(config=config) as server:
            status, body = _post(
                server, "/analyze", {"program": _LEAK, "deadline_ms": 60_000}
            )
        assert status == 200
        assert body["degraded"] is False
        assert body["scan"]["profile"]["counters"].get("deadline_expiries", 0) == 0

    def test_bad_deadline_rejected(self):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(
                    server, "/analyze", {"program": _LEAK, "deadline_ms": -5}
                )
            )
        assert code == 400
        assert body["kind"] == "bad_request"


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self):
        with _serving(jobs=1, max_queue=0) as server:
            slot = server.admission.slot()
            slot.__enter__()  # occupy the single job slot
            try:
                code, headers, body = _error(
                    lambda: _post(server, "/analyze", {"program": _LEAK})
                )
            finally:
                slot.__exit__(None, None, None)
        assert code == 429
        assert body["kind"] == "queue_full"
        assert int(headers["Retry-After"]) >= 1

    def test_rejection_counted_in_metrics(self):
        with _serving(jobs=1, max_queue=0) as server:
            slot = server.admission.slot()
            slot.__enter__()
            try:
                _error(lambda: _post(server, "/analyze", {"program": _LEAK}))
            finally:
                slot.__exit__(None, None, None)
            _, text = _get(server, "/metrics")
        counters = json.loads(text)["counters"]
        assert counters["queue_rejections"] == 1


class TestDiff:
    def test_fixed_leak_diff(self):
        with _serving() as server:
            status, body = _post(
                server, "/diff", {"before": _LEAK, "after": _FIXED}
            )
        assert status == 200
        assert body["diff"]["counts"] == {"new": 0, "fixed": 1, "unchanged": 0}
        assert body["before"]["program_digest"] != body["after"]["program_digest"]

    def test_diff_reuses_the_pool(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": _LEAK})
            status, body = _post(
                server, "/diff", {"before": _LEAK, "after": _LEAK}
            )
        assert status == 200
        assert body["before"]["warm"] is True
        assert body["after"]["warm"] is True
        assert body["diff"]["counts"]["unchanged"] == 1


class TestObservability:
    def test_healthz(self):
        with _serving() as server:
            status, text = _get(server, "/healthz")
        body = json.loads(text)
        assert status == 200
        assert body["status"] == "ok"
        assert body["inflight"] == 0
        assert "pool" in body

    def test_metrics_json(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": _LEAK})
            _post(server, "/analyze", {"program": _LEAK})
            _, text = _get(server, "/metrics")
        body = json.loads(text)
        assert body["counters"]["analyze_requests"] == 2
        assert body["counters"]["cold_misses"] == 1
        assert body["counters"]["warm_hits"] == 1
        assert body["counters"]["incremental_fast_path"] == 1
        assert body["latency"]["analyze"]["count"] == 2
        assert body["gauges"]["pool_sessions"] == 1

    def test_metrics_prometheus(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": _LEAK})
            _, text = _get(server, "/metrics?format=prometheus")
            _, via_accept = _get(
                server, "/metrics", headers={"Accept": "text/plain"}
            )
        assert "# TYPE leakchecker_analyze_requests counter" in text
        assert "leakchecker_analyze_requests 1" in text
        assert "leakchecker_pool_sessions" in text
        assert 'endpoint="analyze"' in text
        assert via_accept.startswith("# TYPE")


class TestErrors:
    def test_unparseable_program_is_422(self):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(server, "/analyze", {"program": "not a program"})
            )
        assert code == 422
        assert body["kind"] == "analysis"

    def test_unknown_region_is_422(self):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(
                    server,
                    "/analyze",
                    {"program": _LEAK, "region": "Nope.nope:X"},
                )
            )
        assert code == 422

    def test_missing_program_is_400(self):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(server, "/analyze", {"nope": 1})
            )
        assert code == 400
        assert body["kind"] == "bad_request"

    def test_invalid_json_is_400(self):
        with _serving() as server:
            request = urllib.request.Request(
                _url(server, "/analyze"),
                data=b"not json",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self):
        with _serving() as server:
            code, _headers, body = _error(lambda: _get(server, "/nope"))
        assert code == 404
        assert body["kind"] == "not_found"

    def test_wrong_method_is_405(self):
        with _serving() as server:
            code, headers, _body = _error(lambda: _get(server, "/analyze"))
            code2, headers2, _body2 = _error(
                lambda: _post(server, "/healthz", {})
            )
        assert code == 405
        assert headers["Allow"] == "POST"
        assert code2 == 405
        assert headers2["Allow"] == "GET"
