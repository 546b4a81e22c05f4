"""A stdlib-only client for the analysis daemon.

:class:`AnalyzeClient` speaks the versioned wire protocol of
``repro serve`` (:mod:`repro.server.schema`, ``docs/api.md``) so
callers stop hand-rolling ``urllib`` requests: the smoke check, the
service benchmarks, and the fleet benchmark all go through it, which
means the protocol has exactly one client-side implementation to keep
honest.

The client unwraps the wire envelope for you —
:meth:`AnalyzeClient.analyze` returns the ``data`` object, not the
transport framing.  Error responses raise :class:`ClientError`
carrying the parsed machine-readable code, message, context, and (for
429) the server's ``Retry-After`` hint.

``POST /analyze-batch`` streams; :meth:`AnalyzeClient.analyze_batch`
is accordingly a generator of decoded NDJSON records (``region``,
``error``, then a terminal ``summary``), yielding each as it arrives.
"""

import json
import urllib.error
import urllib.request

from repro.errors import ReproError
from repro.server.schema import API_VERSION

__all__ = ["AnalyzeClient", "ClientError"]


class ClientError(ReproError):
    """An HTTP error response, parsed into its wire-protocol parts.

    ``status`` is the HTTP status code; ``code`` the envelope's
    machine-readable error code; ``context`` the error's context
    object; ``retry_after`` the 429 back-off hint in seconds (``None``
    otherwise); ``body`` the decoded response body, if it was JSON.
    """

    def __init__(self, status, message, code=None, context=None,
                 retry_after=None, body=None):
        self.status = status
        self.code = code
        self.context = dict(context or {})
        self.retry_after = retry_after
        self.body = body
        super().__init__("HTTP %d [%s]: %s" % (status, code or "?", message))

    @classmethod
    def from_http_error(cls, error):
        """Parse a :class:`urllib.error.HTTPError`."""
        raw = error.read()
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            body = None
        message, code, context = raw.decode("utf-8", "replace"), None, {}
        detail = body.get("error") if isinstance(body, dict) else None
        if isinstance(detail, dict):
            message = detail.get("message", message)
            code = detail.get("code")
            context = detail.get("context") or {}
        retry_after = _parse_retry_after(error.headers.get("Retry-After"))
        return cls(
            error.code,
            message,
            code=code,
            context=context,
            retry_after=retry_after,
            body=body,
        )


def _parse_retry_after(raw):
    """Seconds from a ``Retry-After`` header, or ``None``.

    Servers are allowed to send fractional seconds (this one's
    coordinator-side estimator rounds up, but proxies in front of it
    may not), so parse as a float rather than rejecting ``"1.5"``;
    negative values clamp to 0.  Integral values come back as ``int``
    so existing callers comparing against whole seconds see the same
    type they always did.
    """
    if raw is None:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        return None
    if seconds != seconds or seconds in (float("inf"), float("-inf")):
        return None
    seconds = max(0.0, seconds)
    return int(seconds) if seconds == int(seconds) else seconds


class AnalyzeClient:
    """One analysis service, typed entry points.

    ``base_url`` is the service root (``http://127.0.0.1:8427``); a
    bare ``host:port`` or port number also works.  Every request names
    ``api_version`` 1, in the body and in the query string: a daemon
    from before the single dialect answers its older shapes to requests
    that omit it.
    """

    def __init__(self, base_url, timeout=120):
        if isinstance(base_url, int):
            base_url = "http://127.0.0.1:%d" % base_url
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- endpoints -----------------------------------------------------------

    def analyze(self, program, region=None, deadline_ms=None, javalib=False):
        """``POST /analyze``: the scan data for one program.

        Returns the data object — ``{"warm", "degraded",
        "program_digest", "scan"}``.
        """
        payload = {"program": program}
        if region is not None:
            payload["region"] = region
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if javalib:
            payload["javalib"] = True
        return self._open_json(self._post("/analyze", payload))["data"]

    def diff(self, before, after, deadline_ms=None, javalib=False):
        """``POST /diff``: the finding-level delta of two programs."""
        payload = {"before": before, "after": after}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if javalib:
            payload["javalib"] = True
        return self._open_json(self._post("/diff", payload))["data"]

    def analyze_batch(
        self,
        programs,
        deadline_ms=None,
        include_reports=False,
    ):
        """``POST /analyze-batch``: a generator of NDJSON records.

        ``programs`` is a list of entry dicts (``{"id"?, "program",
        "region"?, "javalib"?}``); a bare source string is accepted and
        wrapped.  Yields each decoded record as the server streams it:
        ``region`` and ``error`` records in entry order, then the
        terminal ``summary``.
        """
        entries = [
            {"program": entry} if isinstance(entry, str) else dict(entry)
            for entry in programs
        ]
        payload = {"programs": entries}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if include_reports:
            payload["include_reports"] = True
        request = self._post("/analyze-batch", payload)
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            raise ClientError.from_http_error(error)
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def healthz(self):
        """``GET /healthz``: liveness + occupancy data."""
        return self._get_json("/healthz")["data"]

    def metrics(self, prometheus=False):
        """``GET /metrics``: the JSON snapshot, or the Prometheus text
        exposition with ``prometheus=True``."""
        if prometheus:
            return self._get_text("/metrics?format=prometheus")
        return self._get_json("/metrics")["data"]

    # -- plumbing ------------------------------------------------------------

    def _post(self, path, payload):
        payload = dict(payload, api_version=API_VERSION)
        return urllib.request.Request(
            # The version rides in the query string too, so an older
            # daemon answers even its pre-body errors (413, bad
            # Content-Length) in the envelope.
            "%s%s?api_version=%d" % (self.base_url, path, API_VERSION),
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )

    def _get_json(self, path):
        url = "%s%s?api_version=%d" % (self.base_url, path, API_VERSION)
        return self._open_json(urllib.request.Request(url))

    def _get_text(self, path):
        try:
            with urllib.request.urlopen(
                self.base_url + path, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ClientError.from_http_error(error)

    def _open_json(self, request):
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise ClientError.from_http_error(error)

    def __repr__(self):
        return "AnalyzeClient(%r)" % self.base_url
