"""End-to-end tests for the HTTP analysis daemon."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.bench.apps import build_app
from repro.core.config import DetectorConfig
from repro.server.app import MAX_HEADERS, create_server
from tests.conftest import MERGED_CALLS_SOURCE, sequential_source

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
    """POST ``payload``; returns the status and the envelope's ``data``."""
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        body = json.loads(response.read())
    assert body["api_version"] == 1 and body["ok"] is True
    return response.status, body["data"]


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
        assert body["warm"] is False
        assert body["degraded"] is False
        assert body["scan"]["leaking_sites"] == ["item"]
        assert body["program_digest"]

    def test_warm_request_serves_without_rebuilding(self, monkeypatch):
        """The acceptance criterion: a repeat of an unchanged program is
        answered from the session pool's stored scan — no session, so
        no call graph and no points-to — with the cold answer."""
        with _serving() as server:
            _, cold = _post(server, "/analyze", {"program": _LEAK})

            def refuse(*args, **kwargs):
                raise AssertionError("the pool built an AnalysisSession")

            monkeypatch.setattr("repro.server.pool.AnalysisSession", refuse)
            status, body = _post(server, "/analyze", {"program": _LEAK})
        assert status == 200
        assert body["warm"] is True
        assert body["scan"]["leaking_sites"] == ["item"]
        assert body["scan"]["loops"] == cold["scan"]["loops"]
        assert not any(
            name.startswith("incremental_")
            for name in body["scan"]["profile"]["counters"]
        )

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

    @pytest.mark.parametrize(
        "javalib", ["false", "no", 1, []],
        ids=["string-false", "string-no", "int", "list"],
    )
    def test_non_boolean_javalib_is_400(self, javalib):
        """Regression: a ``javalib`` that is not a JSON boolean was read
        as true, so ``"false"`` linked the library in."""
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(
                    server, "/analyze", {"program": _LEAK, "javalib": javalib}
                )
            )
            _, plain = _post(server, "/analyze", {"program": _LEAK})
            _, null = _post(
                server, "/analyze", {"program": _LEAK, "javalib": None}
            )
        assert code == 400
        assert body["error"]["code"] == "bad_request"
        assert "javalib" in body["error"]["message"]
        # An absent or null flag is false: the same program, warm.
        assert null["program_digest"] == plain["program_digest"]
        assert null["warm"] is True

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

    def test_degraded_answer_is_not_served_to_a_later_request(self):
        config = DetectorConfig(demand_driven=True)
        with _serving(config=config) as server:
            _, degraded = _post(
                server,
                "/analyze",
                {"program": MERGED_CALLS_SOURCE, "deadline_ms": 0},
            )
            _, exact = _post(
                server, "/analyze", {"program": MERGED_CALLS_SOURCE}
            )
        assert degraded["degraded"] is True
        assert degraded["scan"]["leaking_sites"] == ["item"]
        assert exact["warm"] is True
        assert exact["degraded"] is False
        assert exact["scan"]["leaking_sites"] == []

    def test_bad_deadline_rejected(self):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(
                    server, "/analyze", {"program": _LEAK, "deadline_ms": -5}
                )
            )
        assert code == 400
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("path", ["/analyze", "/diff"])
    def test_deadline_too_large_for_a_float_rejected(self, path):
        """Regression: a 400-digit ``deadline_ms`` is valid JSON but no
        deadline can be computed from it; it was a 500 ``internal``."""
        payload = {"program": _LEAK, "before": _LEAK, "after": _FIXED}
        payload["deadline_ms"] = 10**400
        with _serving() as server:
            code, _headers, body = _error(lambda: _post(server, path, payload))
            server_errors = server.metrics.counters.get("server_errors", 0)
        assert code == 400
        assert body["error"]["code"] == "bad_request"
        assert "deadline_ms" in body["error"]["message"]
        assert server_errors == 0


class TestLongInputs:
    """Inputs that are long rather than deep: they once cost a 500, or
    seconds of CPU that no deadline covered, since deadlines start
    after the frontend."""

    def test_long_method_answers_200(self):
        program = sequential_source(ifs=2000, loops=1)
        with _serving() as server:
            status, body = _post(server, "/analyze", {"program": program})
        assert status == 200
        assert body["scan"]["leaking_sites"] == []
        assert [loop["loop"] for loop in body["scan"]["loops"]] == ["L0"]

    def test_blank_run_costs_no_more_than_its_length(self):
        # Lexing a line's trailing blanks used to backtrack once per
        # blank: 10K of them took 5.7 s to answer under a 1 s deadline.
        source = build_app("derby").source
        first, rest = source.split("\n", 1)
        padded = first + " " * 10_000 + "\n" + rest
        with _serving(deadline_ms=1000) as server:
            _, plain = _post(server, "/analyze", {"program": source})
            start = time.perf_counter()
            status, body = _post(server, "/analyze", {"program": padded})
            seconds = time.perf_counter() - start
        assert status == 200
        assert body["scan"]["leaking_sites"] == plain["scan"]["leaking_sites"]
        assert seconds < 2.0


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
        assert body["error"]["code"] == "queue_full"
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
        counters = json.loads(text)["data"]["counters"]
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

    @pytest.mark.parametrize(
        "javalib", ["false", "no", 0], ids=["string-false", "string-no", "int"]
    )
    def test_non_boolean_javalib_is_400(self, javalib):
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(
                    server,
                    "/diff",
                    {"before": _LEAK, "after": _FIXED, "javalib": javalib},
                )
            )
        assert code == 400
        assert body["error"]["code"] == "bad_request"
        assert "javalib" in body["error"]["message"]

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
        body = json.loads(text)["data"]
        assert status == 200
        assert body["status"] == "ok"
        assert body["inflight"] == 0
        assert "pool" in body

    def test_metrics_json(self):
        with _serving() as server:
            _post(server, "/analyze", {"program": _LEAK})
            _post(server, "/analyze", {"program": _LEAK})
            _, text = _get(server, "/metrics")
        body = json.loads(text)["data"]
        assert body["counters"]["analyze_requests"] == 2
        assert body["counters"]["cold_misses"] == 1
        assert body["counters"]["warm_hits"] == 1
        assert not any(
            name.startswith("incremental_") or name == "sessions_evicted"
            for name in body["counters"]
        )
        assert body["latency"]["analyze"]["count"] == 2
        assert body["gauges"]["pool_sessions"] == 1

    def test_cold_analyze_exports_kernel_stats(self):
        """A cold ``/analyze`` runs the whole-program points-to solve:
        its kernel statistics reach ``/metrics`` and every report."""
        from repro.bench.apps import build_app
        from repro.ir.printer import program_to_text

        source = program_to_text(build_app("memocache").program)
        with _serving() as server:
            _, body = _post(server, "/analyze", {"program": source})
            _, text = _get(server, "/metrics")
        gauges = json.loads(text)["data"]["gauges"]
        assert {
            "kernel_nodes",
            "kernel_slot_nodes",
            "kernel_sites",
            "kernel_copy_edges",
            "kernel_bitset_bytes",
            "kernel_substituted",
            "kernel_sccs_collapsed",
            "kernel_rounds",
        } <= set(gauges)
        assert gauges["kernel_nodes"] > 0
        loops = body["scan"]["loops"]
        assert loops
        assert all(entry["report"]["stats"]["kernel"] for entry in loops)

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
        assert body["error"]["code"] == "analysis_error"

    def test_program_without_entry_is_422(self):
        """A client's program error, not a server fault: 422, and no
        ``server_errors`` counted."""
        no_entry = _LEAK.replace("entry Main.main;", "")
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(server, "/analyze", {"program": no_entry})
            )
            server_errors = server.metrics.counters["server_errors"]
        assert code == 422
        assert body["error"]["code"] == "analysis_error"
        assert "no entry point" in body["error"]["message"]
        assert server_errors == 0

    def test_nesting_past_the_limit_is_422(self):
        from repro.lang.parser import MAX_NESTING

        depth = MAX_NESTING + 1
        deep = (
            "entry Main.main;\nclass Main { static method main() {\n"
            + "if (*) {\n" * depth
            + "x = null;\n"
            + "}\n" * depth
            + "} }\n"
        )
        with _serving() as server:
            code, _headers, body = _error(
                lambda: _post(server, "/analyze", {"program": deep})
            )
            server_errors = server.metrics.counters["server_errors"]
        assert code == 422
        assert body["error"]["code"] == "analysis_error"
        assert "nested more than %d" % MAX_NESTING in body["error"]["message"]
        assert server_errors == 0

    def test_inheritance_cycle_is_422_promptly(self):
        """A cyclic ``extends`` chain fails validation; before that check
        the call-graph build spun forever and the request never answered."""
        cyclic = _LEAK.replace("class Cache {", "class Cache extends Item {")
        cyclic = cyclic.replace("class Item { }", "class Item extends Cache { }")
        with _serving() as server:
            request = urllib.request.Request(
                _url(server, "/analyze"),
                data=json.dumps({"program": cyclic}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            code, _headers, body = _error(
                lambda: urllib.request.urlopen(request, timeout=10)
            )
            _, health = _get(server, "/healthz")
        assert code == 422
        assert body["error"]["code"] == "analysis_error"
        assert "extends cycle: Cache extends Item extends Cache" in (
            body["error"]["message"]
        )
        assert json.loads(health)["data"]["inflight"] == 0

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
        assert body["error"]["code"] == "bad_request"

    def test_invalid_json_is_400(self):
        # Nesting past the decoder's recursion limit and an integer past
        # the conversion limit are invalid JSON too, not server errors.
        bodies = (b"not json", b"[" * 100_000, b'{"a": ' + b"1" * 5000 + b"}")
        codes = []
        with _serving() as server:
            for path in ("/analyze", "/diff"):
                for body in bodies:
                    request = urllib.request.Request(
                        _url(server, path),
                        data=body,
                        headers={"Content-Type": "application/json"},
                        method="POST",
                    )
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        urllib.request.urlopen(request, timeout=30)
                    error = json.loads(excinfo.value.read())
                    codes.append((excinfo.value.code, error["error"]["code"]))
        assert codes == [(400, "bad_request")] * 6

    def test_unknown_path_is_404(self):
        with _serving() as server:
            code, _headers, body = _error(lambda: _get(server, "/nope"))
        assert code == 404
        assert body["error"]["code"] == "not_found"

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


def _raw_request(server, head):
    """Send ``head`` verbatim on a new connection; returns the status
    and the decoded JSON body of the response."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    status_line, _, rest = b"".join(chunks).partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(body)


def _get_with_headers(count):
    lines = ["GET /healthz HTTP/1.1", "Host: localhost"]
    lines += ["X-Filler-%d: %d" % (n, n) for n in range(count - 1)]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestRequestLimits:
    def test_too_many_header_lines_is_400(self):
        """One header line past the limit is refused with the envelope,
        and the daemon keeps serving new connections."""
        with _serving() as server:
            status, body = _raw_request(
                server, _get_with_headers(MAX_HEADERS + 1)
            )
            after, health = _raw_request(server, _get_with_headers(1))
        assert status == 400
        assert body["ok"] is False
        assert body["error"]["code"] == "bad_request"
        assert "header" in body["error"]["message"]
        assert after == 200
        assert health["data"]["status"] == "ok"

    def test_header_limit_is_inclusive(self):
        with _serving() as server:
            status, body = _raw_request(
                server, _get_with_headers(MAX_HEADERS)
            )
        assert status == 200
        assert body["data"]["status"] == "ok"

    def test_malformed_request_line_is_400_envelope(self):
        with _serving() as server:
            status, body = _raw_request(server, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
