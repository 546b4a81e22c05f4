"""The analysis daemon: LeakChecker behind five HTTP endpoints.

Stdlib only, started by ``repro serve``.  Admission is an **async
accept loop** (:mod:`asyncio`) feeding a bounded work queue: accepting
a connection costs one coroutine, not one thread, and the blocking
analysis work runs on a small thread pool guarded by
:class:`~repro.server.limits.AdmissionControl` — at most ``jobs``
analyses at once, at most ``max_queue`` waiting, one more refused with
``429`` + ``Retry-After`` before any expensive work happens.

Endpoints (see ``docs/api.md`` for the full wire reference and
:mod:`repro.server.schema` for the machine-checked shapes):

* ``POST /analyze`` — body ``{"program": <source>, "region": <spec |
  [spec, ...]>?, "deadline_ms": <int>?, "javalib": <bool>?}``.  Runs a
  scan through the :class:`~repro.server.pool.SessionPool`: the first
  request for a text is a cold scan, and a repeat of the same text is
  answered from the pooled scan without parsing, or checked against the
  pooled substrate, without rebuilding analysis state.
* ``POST /diff`` — body ``{"before": <source>, "after": <source>,
  "deadline_ms"?, "javalib"?}``; the finding-level
  :class:`~repro.core.diffing.LeakDelta` of two programs.
* ``POST /analyze-batch`` — body ``{"programs": [{"id"?, "program",
  "region"?, "javalib"?}, ...], "deadline_ms"?, "include_reports"?}``.
  Streams NDJSON in entry order: one ``region`` record per checked
  region, ``error`` records for programs or regions that failed (the
  stream continues past them), and a terminal ``summary`` record.
  Entries the session pool has seen run through it in-process; with
  ``serve --workers N`` every other entry is one program task on the
  worker fleet (:mod:`~repro.server.coordinator`), all of them
  submitted before the first record, so ``serve`` and ``serve
  --workers N`` stream the same records.
* ``GET /healthz`` — liveness plus admission/pool occupancy.
* ``GET /metrics`` — cumulative counters, latency quantiles (analyze,
  diff, batch, per-task), pool gauges, and — when the fleet is on —
  per-worker utilization and queue depth.  JSON by
  default, Prometheus text with ``?format=prometheus``.

Every JSON response is the wire-version-1 envelope of
:mod:`repro.server.schema`.  A request may name ``api_version`` in a
POST body or as a query parameter; any value other than 1 is a ``400``.

Status codes: ``400`` malformed request, ``404`` unknown path, ``405``
wrong method (with ``Allow``), ``413`` oversized body, ``422`` the
program failed to parse/resolve, ``429`` + ``Retry-After`` when the
bounded queue is full, ``500`` only for genuine bugs.

Deadlines degrade, they do not fail: the effective deadline is the
smaller of the server-wide ``--deadline-ms`` and the request's
``deadline_ms``; when it expires mid-analysis, demand-driven points-to
refinement stops and queries answer from the sound whole-program
fallback, so the request still completes — flagged ``"degraded":
true`` rather than turned into an error.
"""

import asyncio
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from repro.core.diffing import diff_analyses
from repro.core.regions import region_text
from repro.errors import ReproError
from repro.server import schema
from repro.server.limits import AdmissionControl, QueueFull
from repro.server.metrics import ServerMetrics
from repro.server.pool import SessionPool, text_key

#: Largest request body accepted (bytes); beyond it the server answers
#: ``413`` without reading the payload into memory.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: How much of an oversized body is drained before answering 413, so
#: well-behaved clients that already sent it get the response parsed.
_DRAIN_LIMIT = 1024 * 1024

#: Most header lines a request may carry, as in :mod:`http.client`;
#: one more is answered ``400`` before any of them is kept.
MAX_HEADERS = 100

_ROUTES = {
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
    ("POST", "/analyze"): "analyze",
    ("POST", "/diff"): "diff",
    ("POST", "/analyze-batch"): "batch",
}

_PATH_METHODS = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/analyze": "POST",
    "/diff": "POST",
    "/analyze-batch": "POST",
}


class BadRequest(Exception):
    """Client-side request error; rendered as HTTP 400."""


class PayloadTooLarge(Exception):
    """Request body beyond ``max_body``; rendered as HTTP 413."""


class _Response:
    """One ready-to-send plain (non-streaming) HTTP response."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status, body, content_type):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = {}


class AnalysisServer:
    """One daemon process: async accept loop in front, session pool +
    admission + optional worker fleet behind, metrics throughout.

    The listening socket binds eagerly in the constructor (so
    ``server_address`` is final before :meth:`serve_forever` runs — the
    tests and the CLI banner depend on that), while the event loop
    starts inside :meth:`serve_forever`.  The interface mirrors
    ``socketserver`` (``serve_forever`` / ``shutdown`` /
    ``server_close``) so callers did not have to move when the
    threaded server became this accept loop.
    """

    def __init__(
        self,
        address,
        *,
        config=None,
        jobs=1,
        max_queue=8,
        deadline_ms=None,
        max_sessions=8,
        workers=0,
        worker_hosts=None,
        max_body=DEFAULT_MAX_BODY,
    ):
        self.pool = SessionPool(config=config, max_sessions=max_sessions)
        self.admission = AdmissionControl(jobs=jobs, max_queue=max_queue)
        self.metrics = ServerMetrics()
        self.default_deadline_ms = deadline_ms
        self.max_body = max_body
        self.coordinator = None
        if workers or worker_hosts:
            from repro.server.coordinator import Coordinator

            self.coordinator = Coordinator(
                workers, worker_hosts=worker_hosts, metrics=self.metrics
            )
            # Local workers were forked above and remote ones are dialed
            # here, all before binding.  A worker re-forked later,
            # mid-request, closes the listener and the client
            # connections it inherits before it serves.
            self.coordinator.transport.warm()
        self._sock = socket.create_server(address, reuse_port=False)
        self.server_address = self._sock.getsockname()
        # Enough threads that every admission slot, every queue
        # position, and a few control requests can hold one at once —
        # the bounded queue saturates before the executor does, so
        # QueueFull (not thread starvation) is what callers hit.
        self._executor = ThreadPoolExecutor(
            max_workers=jobs + max_queue + 4,
            thread_name_prefix="repro-serve",
        )
        self._loop = None
        self._stop = None
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self):
        """Run the accept loop until :meth:`shutdown` (blocking)."""
        asyncio.run(self._serve())

    async def _serve(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._stopping.is_set():  # shutdown() won the race to start
            self._sock.close()
            return
        server = await asyncio.start_server(
            self._handle_connection, sock=self._sock
        )
        try:
            await self._stop.wait()
        finally:
            # The loop thread owns the socket from here on; closing it
            # from another thread would race the selector.
            server.close()
            await server.wait_closed()

    def shutdown(self):
        """Stop the accept loop (thread-safe, idempotent)."""
        self._stopping.set()
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed

    def server_close(self):
        """Release every resource: executor, fleet, session pool — and
        the listening socket, unless the accept loop ran (it closes its
        own)."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.coordinator is not None:
            self.coordinator.close()
        self.pool.close()
        if self._loop is None:
            try:
                self._sock.close()
            except OSError:
                pass

    # -- shared helpers ------------------------------------------------------

    def effective_deadline_ms(self, requested):
        """The stricter of the server default and the request's ask."""
        bounds = [
            ms for ms in (self.default_deadline_ms, requested) if ms is not None
        ]
        return min(bounds) if bounds else None

    def gauges(self):
        inflight, queued = self.admission.occupancy()
        gauges = dict(self.pool.stats())
        gauges["inflight_requests"] = inflight
        gauges["queued_requests"] = queued
        return gauges

    def fleet_snapshot(self):
        """The coordinator's fleet stats, or ``None`` without a fleet."""
        if self.coordinator is None:
            return None
        return self.coordinator.fleet_stats()

    def _retry_after(self, depth):
        """Seconds a 429'd client should back off: the mean analyze
        latency times the line length in front of it, at least 1."""
        mean = self.metrics.mean_latency("analyze")
        return max(1, int(math.ceil(mean * (depth + 1))))

    def _count(self, endpoint):
        self.metrics.count("requests_total")
        self.metrics.count("%s_requests" % endpoint)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            await self._handle_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:  # noqa: BLE001 - last-resort: drop the socket
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(self, reader, writer):
        request_line = await reader.readline()
        if not request_line:
            return
        parts = request_line.decode("latin-1").split()
        try:
            if len(parts) < 2:
                raise BadRequest("malformed request line")
            headers = await _read_headers(reader)
        except BadRequest as exc:
            self.metrics.count("requests_total")
            self.metrics.count("client_errors")
            await self._send(writer, self._error_response(400, str(exc)))
            return
        method, target = parts[0], parts[1]
        parsed = urlparse(target)
        path, query = parsed.path, parse_qs(parsed.query)

        endpoint = _ROUTES.get((method, path))
        if endpoint is None:
            await self._send(writer, self._route_error(method, path))
            return
        self._count(endpoint)

        raw_body = b""
        if method == "POST":
            try:
                raw_body = await self._read_body(reader, writer, headers)
            except PayloadTooLarge as exc:
                self.metrics.count("payload_too_large")
                self.metrics.count("client_errors")
                await self._send(writer, self._error_response(413, str(exc)))
                return
            except BadRequest as exc:
                self.metrics.count("client_errors")
                await self._send(writer, self._error_response(400, str(exc)))
                return

        if endpoint == "batch":
            await self._handle_batch(writer, raw_body, query)
            return

        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            self._executor, self._respond_plain, endpoint, raw_body, query, headers
        )
        await self._send(writer, response)

    async def _read_body(self, reader, writer, headers):
        length = headers.get("content-length")
        if length is None:
            raise BadRequest("Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise BadRequest("malformed Content-Length")
        if length < 0:
            raise BadRequest("malformed Content-Length")
        expects_continue = (
            "100-continue" in headers.get("expect", "").lower()
        )
        if length > self.max_body:
            if not expects_continue:
                # The body is already in flight; drain a bounded amount
                # so the client gets to read our 413 instead of a reset.
                remaining = min(length, _DRAIN_LIMIT)
                while remaining > 0:
                    chunk = await reader.read(min(65536, remaining))
                    if not chunk:
                        break
                    remaining -= len(chunk)
            raise PayloadTooLarge(
                "request body of %d bytes exceeds the %d byte limit"
                % (length, self.max_body)
            )
        if expects_continue:
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequest("request body shorter than Content-Length")

    def _route_error(self, method, path):
        self.metrics.count("requests_total")
        self.metrics.count("client_errors")
        allowed = _PATH_METHODS.get(path)
        if allowed is not None and allowed != method:
            response = self._error_response(405, "method not allowed")
            response.headers["Allow"] = allowed
            return response
        return self._error_response(404, "unknown path")

    # -- plain endpoints (run on the executor) -------------------------------

    def _respond_plain(self, endpoint, raw_body, query, headers):
        started = time.perf_counter()
        timed = endpoint if endpoint in ("analyze", "diff") else None
        try:
            payload = _decode_json(raw_body) if raw_body else None
            schema.requested_version(payload, query)
            if endpoint == "metrics":
                response = self._metrics_endpoint(query, headers)
            elif endpoint == "healthz":
                response = self._healthz_endpoint()
            elif endpoint == "analyze":
                response = self._analyze_endpoint(payload)
            else:
                response = self._diff_endpoint(payload)
            self.metrics.count("responses_ok")
        except QueueFull as exc:
            self.metrics.count("queue_rejections")
            response = self._queue_full_response(exc)
        except (BadRequest, schema.SchemaError) as exc:
            self.metrics.count("client_errors")
            response = self._error_response(400, str(exc))
        except ReproError as exc:
            self.metrics.count("client_errors")
            self.metrics.count("analysis_errors")
            response = self._error_response(422, str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self.metrics.count("server_errors")
            response = self._error_response(500, str(exc))
        if timed is not None:
            self.metrics.observe_latency(timed, time.perf_counter() - started)
        return response

    def _analyze_endpoint(self, payload):
        if payload is None:
            raise BadRequest("request body required")
        source, javalib = _program_source(payload)
        regions = _region_texts(payload.get("region"))
        deadline_ms = self.effective_deadline_ms(
            _optional_int(payload, "deadline_ms")
        )
        with self.admission.slot():
            result, info = self.pool.analyze(
                source, javalib, regions, deadline_ms
            )
        self._record_analysis(result, info)
        data = {
            "warm": info["warm"],
            "degraded": info["degraded"],
            "program_digest": info["program_digest"],
            "scan": result.as_dict(),
        }
        return self._success_response("analyze", data)

    def _diff_endpoint(self, payload):
        if payload is None:
            raise BadRequest("request body required")
        before, javalib = _program_source(payload, key="before")
        after, _ = _program_source(payload, key="after")
        deadline_ms = self.effective_deadline_ms(
            _optional_int(payload, "deadline_ms")
        )
        with self.admission.slot():
            before_result, before_info = self.pool.analyze(
                before, javalib, deadline_ms=deadline_ms
            )
            after_result, after_info = self.pool.analyze(
                after, javalib, deadline_ms=deadline_ms
            )
        for result, info in (
            (before_result, before_info),
            (after_result, after_info),
        ):
            self._record_analysis(result, info)
        delta = diff_analyses(before_result, after_result)
        data = {
            "diff": delta.as_dict(),
            "before": {
                "program_digest": before_info["program_digest"],
                "warm": before_info["warm"],
            },
            "after": {
                "program_digest": after_info["program_digest"],
                "warm": after_info["warm"],
            },
        }
        return self._success_response("diff", data)

    def _healthz_endpoint(self):
        inflight, queued = self.admission.occupancy()
        data = {
            "status": "ok",
            "inflight": inflight,
            "queued": queued,
            "pool": self.pool.stats(),
        }
        if self.coordinator is not None:
            data["pool"] = dict(data["pool"])
            data["pool"]["fleet_workers"] = self.coordinator.transport.workers
        return self._success_response("healthz", data)

    def _metrics_endpoint(self, query, headers):
        wants_text = query.get("format", [""])[0] == "prometheus" or (
            "text/plain" in headers.get("accept", "")
        )
        fleet = self.fleet_snapshot()
        if wants_text:
            body = self.metrics.prometheus_text(
                self.gauges(), fleet=fleet
            ).encode("utf-8")
            return _Response(200, body, "text/plain; version=0.0.4")
        data = self.metrics.as_dict(self.gauges(), fleet=fleet)
        return self._success_response("metrics", data)

    # -- the batch endpoint --------------------------------------------------

    async def _handle_batch(self, writer, raw_body, query):
        """Stream ``/analyze-batch``: the executor thread runs the
        fan-out and feeds records through an asyncio queue; this
        coroutine writes them out as NDJSON lines as they arrive.

        The stream head (200 + ``application/x-ndjson``) goes on the
        wire only after the admission slot is held, so a saturated
        queue still answers with a proper 429 JSON response."""
        loop = asyncio.get_running_loop()
        queue = asyncio.Queue()

        def emit(kind, item=None):
            loop.call_soon_threadsafe(queue.put_nowait, (kind, item))

        loop.run_in_executor(
            self._executor, self._run_batch, raw_body, query, emit
        )
        kind, item = await queue.get()
        if kind == "response":  # pre-stream rejection (400/429/...)
            await self._send(writer, item)
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        while True:
            kind, item = await queue.get()
            if kind == "end":
                break
            writer.write(
                json.dumps(item, sort_keys=True).encode("utf-8") + b"\n"
            )
            await writer.drain()

    def _run_batch(self, raw_body, query, emit):
        """The blocking half of ``/analyze-batch`` (executor thread).

        Its first emit is always ``head`` or ``response``: a request
        that fails before the stream starts is answered, so the writing
        coroutine never waits for a stream that will not come."""
        started = time.perf_counter()
        try:
            payload = _decode_json(raw_body) if raw_body else None
            schema.requested_version(payload, query)
            entries = _batch_entries(payload)
            deadline_ms = self.effective_deadline_ms(
                _optional_int(payload, "deadline_ms")
            )
            include_reports = _optional_bool(payload, "include_reports")
        except (BadRequest, schema.SchemaError) as exc:
            self.metrics.count("client_errors")
            emit("response", self._error_response(400, str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - answer, never hang the client
            self.metrics.count("server_errors")
            emit("response", self._error_response(500, str(exc)))
            return
        try:
            with self.admission.slot():
                emit("head")
                summary = self._stream_batch_records(
                    entries, deadline_ms, include_reports, emit
                )
        except QueueFull as exc:
            self.metrics.count("queue_rejections")
            emit("response", self._queue_full_response(exc))
            return
        except Exception as exc:  # noqa: BLE001 - emit, never hang the stream
            emit(
                "record",
                schema.validate_record(
                    {
                        "record": "error",
                        "program_id": None,
                        "region": None,
                        "error": {
                            "code": "internal",
                            "message": str(exc),
                            "context": {},
                        },
                    }
                ),
            )
            emit("end")
            self.metrics.count("server_errors")
            return
        if summary["errors"] == 0:
            self.metrics.count("responses_ok")
        self.metrics.observe_latency("batch", time.perf_counter() - started)
        emit("end")

    def _stream_batch_records(self, entries, deadline_ms, include_reports, emit):
        """Analyze every batch entry, emitting records in entry order;
        returns the terminal summary (already emitted)."""
        started = time.perf_counter()
        totals = {"regions": 0, "errors": 0, "findings": 0}

        def send(record):
            emit("record", schema.validate_record(record))
            self.metrics.count("batch_regions" if record["record"] == "region"
                               else "batch_record_errors")
            if record["record"] == "error":
                totals["errors"] += 1
            else:
                totals["regions"] += 1
                totals["findings"] += record["findings"]

        self.metrics.count("batch_programs", len(entries))
        requests = [_batch_request(entry) for entry in entries]
        tasks = self._submit_unseen(requests, deadline_ms)
        for position, (entry, request) in enumerate(zip(entries, requests)):
            program_id = entry.get("id") or ("program-%d" % position)
            for record in self._entry_records(
                request, tasks.get(position), deadline_ms, include_reports
            ):
                record["program_id"] = program_id
                send(record)
        summary = {
            "record": "summary",
            "ok": totals["errors"] == 0,
            "programs": len(entries),
            "regions": totals["regions"],
            "errors": totals["errors"],
            "findings": totals["findings"],
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        emit("record", schema.validate_record(summary))
        return summary

    def _submit_unseen(self, requests, deadline_ms):
        """Submit every well-formed entry whose text the pool has never
        seen to the fleet, at once; ``{position: future}``, empty
        without a fleet."""
        if self.coordinator is None:
            return {}
        return {
            position: self.coordinator.submit(
                *request, config=self.pool.config, deadline_ms=deadline_ms
            )
            for position, request in enumerate(requests)
            if not isinstance(request, BadRequest)
            and not self.pool.seen(text_key(*request[:2]))
        }

    def _entry_records(self, request, task, deadline_ms, include_reports):
        """Yield one entry's region/error records, without ``program_id``:
        from its fleet task when it has one, else from the session
        pool."""
        if isinstance(request, BadRequest):
            yield _error_record(None, "bad_request", str(request))
            return
        if task is not None:
            yield from self._task_records(request, task, include_reports)
            return
        try:
            result, info = self.pool.analyze(*request, deadline_ms)
        except ReproError as exc:
            # The program cannot be analysed at all (it does not parse,
            # a region does not resolve, or warm-up failed): one record
            # for it, and the batch goes on.
            self.metrics.count("analysis_errors")
            yield _error_record(None, "analysis_error", str(exc))
            return
        self._record_analysis(result, info)
        for index, (spec, report) in enumerate(result.entries):
            yield _region_record(
                info["program_digest"],
                index,
                region_text(spec),
                report.leaking_site_labels,
                info["degraded"],
                report.as_dict() if include_reports else None,
            )

    def _task_records(self, request, task, include_reports):
        """Yield the records of one program's fleet answer, and register
        its text with the pool: a repeat, even of a program that failed,
        is the pool's, never the fleet's again."""
        try:
            answer = task.result()
        except Exception as exc:  # noqa: BLE001 - a lost task costs its program
            yield _error_record(
                None, "internal",
                "worker failure: %s: %s" % (type(exc).__name__, exc),
            )
            return
        self.pool.register(text_key(*request[:2]), answer.get("digest"))
        if "error" in answer:
            self.metrics.count("analysis_errors")
            yield _error_record(
                None, "analysis_error", answer["error"]["message"]
            )
            return
        for index, outcome in enumerate(answer["outcomes"]):
            if "error" in outcome:
                yield _error_record(
                    outcome["region"], "internal", outcome["error"],
                    {"index": index},
                )
                continue
            report = outcome["report"]
            yield _region_record(
                answer["digest"],
                index,
                outcome["region"],
                [finding["site"] for finding in report["findings"]],
                answer["degraded"],
                report if include_reports else None,
            )

    # -- bookkeeping ---------------------------------------------------------

    def _record_analysis(self, result, info):
        metrics = self.metrics
        metrics.count("warm_hits" if info["warm"] else "cold_misses")
        profile = result.aggregate_stats().counters
        metrics.count_many(
            {
                "deadline_expiries": profile.get("deadline_expiries", 0),
                "budget_exhaustions": profile.get("budget_exhaustions", 0),
                "degraded_responses": int(info["degraded"]),
            }
        )

    # -- response construction -----------------------------------------------

    def _success_response(self, endpoint, data):
        body = schema.validate_response(endpoint, schema.success_body(data))
        return _json_response(200, body)

    def _error_response(self, status, message, context=None):
        body = schema.validate_error(schema.error_body(status, message, context))
        return _json_response(status, body)

    def _queue_full_response(self, exc):
        """The 429 for a full queue; its ``Retry-After`` header is
        mirrored into the body's context."""
        retry_after = self._retry_after(exc.depth)
        response = self._error_response(
            429, str(exc), {"retry_after": retry_after}
        )
        response.headers["Retry-After"] = str(retry_after)
        return response

    async def _send(self, writer, response):
        phrase = HTTPStatus(response.status).phrase
        head = ["HTTP/1.1 %d %s" % (response.status, phrase)]
        head.append("Content-Type: %s" % response.content_type)
        head.append("Content-Length: %d" % len(response.body))
        head.append("Connection: close")
        for name, value in response.headers.items():
            head.append("%s: %s" % (name, value))
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )
        await writer.drain()


def _json_response(status, body):
    return _Response(
        status,
        json.dumps(body, sort_keys=True).encode("utf-8"),
        "application/json",
    )


# -- request decoding --------------------------------------------------------


async def _read_headers(reader):
    """The request's headers up to the blank line, names lowercased;
    more than :data:`MAX_HEADERS` lines is a :class:`BadRequest`."""
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise BadRequest("more than %d header lines" % MAX_HEADERS)


def _decode_json(raw):
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, nesting deeper than the decoder recurses.
        raise BadRequest("request body is not valid JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def _program_source(payload, key="program"):
    """A request's ``(source, javalib)``; :class:`BadRequest` unless the
    source is a non-empty string and ``javalib`` a JSON boolean."""
    source = payload.get(key)
    if not isinstance(source, str) or not source.strip():
        raise BadRequest('"%s" must be a non-empty source string' % key)
    return source, _optional_bool(payload, "javalib")


def _optional_bool(payload, key):
    """A JSON boolean field, absent or ``null`` reading as false;
    :class:`BadRequest` for any other value (``"false"`` is not false)."""
    value = payload.get(key)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise BadRequest('"%s" must be a boolean' % key)
    return value


def _region_texts(region):
    if region is None:
        return None
    if isinstance(region, str):
        region = [region]
    if not isinstance(region, list) or not all(
        isinstance(text, str) for text in region
    ):
        raise BadRequest(
            '"region" must be a spec string or a list of spec strings'
        )
    return region


def _batch_request(entry):
    """One batch entry as ``(source, javalib, regions)``, or the
    :class:`BadRequest` that its record reports."""
    try:
        return _program_source(entry) + (_region_texts(entry.get("region")),)
    except BadRequest as exc:
        return exc


def _optional_int(payload, key):
    value = payload.get(key) if payload else None
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise BadRequest('"%s" must be a non-negative integer' % key)
    try:
        float(value)
    except OverflowError:
        # Valid JSON, but no deadline can be computed from it.
        raise BadRequest('"%s" is too large' % key) from None
    return value


def _batch_entries(payload):
    if payload is None:
        raise BadRequest("request body required")
    entries = payload.get("programs")
    if not isinstance(entries, list) or not entries:
        raise BadRequest('"programs" must be a non-empty list of objects')
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BadRequest('"programs" must be a non-empty list of objects')
        if entry.get("id") is not None and not isinstance(entry["id"], str):
            raise BadRequest(
                '"programs[%d].id" must be a string' % position
            )
    return entries


def _region_record(digest, index, region, sites, degraded, report):
    record = {
        "record": "region",
        "program_digest": digest,
        "region": region,
        "index": index,
        "leaking_sites": list(sites),
        "findings": len(sites),
        "degraded": degraded,
    }
    if report is not None:
        record["report"] = report
    return record


def _error_record(region, code, message, context=None):
    return {
        "record": "error",
        "region": region,
        "error": {"code": code, "message": message, "context": context or {}},
    }


# -- construction ------------------------------------------------------------


def create_server(
    host="127.0.0.1",
    port=0,
    *,
    config=None,
    jobs=1,
    max_queue=8,
    deadline_ms=None,
    max_sessions=8,
    workers=0,
    worker_hosts=None,
    max_body=DEFAULT_MAX_BODY,
):
    """Build a ready-to-serve :class:`AnalysisServer`.

    ``port=0`` binds an ephemeral port (tests); read the actual one
    from ``server.server_address[1]``.  ``workers=N`` attaches a fleet
    coordinator with N forked local workers, which run the programs of
    ``POST /analyze-batch`` the session pool has not seen; ``workers=0``
    (default) serves every batch entry through the in-process session
    pool.  ``worker_hosts`` names the
    ``repro worker`` endpoints of a multi-host fleet: given any, the
    fleet is remote and sizes itself to that list.
    """
    return AnalysisServer(
        (host, port),
        config=config,
        jobs=jobs,
        max_queue=max_queue,
        deadline_ms=deadline_ms,
        max_sessions=max_sessions,
        workers=workers,
        worker_hosts=worker_hosts,
        max_body=max_body,
    )


def run_server(server):
    """Serve until interrupted; returns cleanly on Ctrl-C."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
