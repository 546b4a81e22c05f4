"""Service observability: cumulative counters and latency quantiles.

One :class:`ServerMetrics` instance lives for the daemon's lifetime and
is rendered two ways by ``GET /metrics``:

* **JSON** (default) — the counters verbatim plus per-endpoint latency
  summaries, convenient for scripts and the smoke tests;
* **Prometheus text format** (``?format=prometheus`` or an
  ``Accept: text/plain`` header) — every counter as
  ``leakchecker_<name>`` with ``# TYPE`` annotations, latency quantiles
  as a ``summary`` metric, ready for scraping.

Latency quantiles are computed over a bounded sliding window (the last
``window`` observations per endpoint) — cumulative count and sum stay
exact, the p50/p95 reflect recent traffic, and memory stays constant.
"""

import threading
from collections import deque

#: Counter names always present in the snapshot, so dashboards and the
#: smoke tests can rely on the keys existing from the first scrape.
BASE_COUNTERS = (
    "requests_total",
    "analyze_requests",
    "diff_requests",
    "healthz_requests",
    "metrics_requests",
    "responses_ok",
    "client_errors",
    "server_errors",
    "queue_rejections",
    "warm_hits",
    "cold_misses",
    "degraded_responses",
    "deadline_expiries",
    "budget_exhaustions",
    "analysis_errors",
    "payload_too_large",
    "batch_requests",
    "batch_programs",
    "batch_regions",
    "batch_record_errors",
)


def percentile(values, fraction):
    """The ``fraction`` quantile (nearest-rank) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class ServerMetrics:
    """Cumulative counters + bounded latency windows; thread-safe."""

    def __init__(self, window=512):
        self._lock = threading.Lock()
        self.counters = {name: 0 for name in BASE_COUNTERS}
        self.window = window
        #: endpoint -> recent latency observations (seconds)
        self._latency = {}
        #: endpoint -> (cumulative count, cumulative seconds)
        self._latency_totals = {}

    def count(self, name, delta=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def count_many(self, mapping):
        """Fold a ``{counter: delta}`` dict in, skipping zero deltas."""
        with self._lock:
            for name, delta in mapping.items():
                if delta:
                    self.counters[name] = self.counters.get(name, 0) + delta

    def observe_latency(self, endpoint, seconds):
        with self._lock:
            window = self._latency.get(endpoint)
            if window is None:
                window = self._latency[endpoint] = deque(maxlen=self.window)
            window.append(seconds)
            count, total = self._latency_totals.get(endpoint, (0, 0.0))
            self._latency_totals[endpoint] = (count + 1, total + seconds)

    def latency_summary(self, endpoint):
        """``{count, seconds_total, p50, p95}`` for one endpoint."""
        with self._lock:
            window = list(self._latency.get(endpoint, ()))
            count, total = self._latency_totals.get(endpoint, (0, 0.0))
        return {
            "count": count,
            "seconds_total": round(total, 6),
            "p50": round(percentile(window, 0.50), 6),
            "p95": round(percentile(window, 0.95), 6),
        }

    def mean_latency(self, endpoint):
        """Average seconds per request (0.0 before any traffic) — the
        backpressure layer's ``Retry-After`` estimator."""
        with self._lock:
            count, total = self._latency_totals.get(endpoint, (0, 0.0))
        return (total / count) if count else 0.0

    # -- rendering -----------------------------------------------------------

    def as_dict(self, gauges=None, fleet=None):
        """JSON-ready snapshot: counters, latency summaries, gauges —
        plus the coordinator's fleet snapshot when one is attached."""
        with self._lock:
            counters = dict(self.counters)
            endpoints = list(self._latency_totals)
        snapshot = {
            "counters": counters,
            "latency": {
                endpoint: self.latency_summary(endpoint)
                for endpoint in sorted(endpoints)
            },
            "gauges": dict(gauges or {}),
        }
        if fleet is not None:
            snapshot["fleet"] = dict(fleet)
        return snapshot

    def prometheus_text(self, gauges=None, fleet=None):
        """The snapshot in Prometheus exposition format (text v0.0.4)."""
        lines = []
        snapshot = self.as_dict(gauges)
        for name in sorted(snapshot["counters"]):
            metric = "leakchecker_%s" % name
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %d" % (metric, snapshot["counters"][name]))
        for name in sorted(snapshot["gauges"]):
            metric = "leakchecker_%s" % name
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, _number(snapshot["gauges"][name])))
        for endpoint in sorted(snapshot["latency"]):
            summary = snapshot["latency"][endpoint]
            metric = "leakchecker_request_latency_seconds"
            lines.append("# TYPE %s summary" % metric)
            for key, label in (("p50", "0.5"), ("p95", "0.95")):
                lines.append(
                    '%s{endpoint="%s",quantile="%s"} %s'
                    % (metric, endpoint, label, _number(summary[key]))
                )
            lines.append(
                '%s_count{endpoint="%s"} %d'
                % (metric, endpoint, summary["count"])
            )
            lines.append(
                '%s_sum{endpoint="%s"} %s'
                % (metric, endpoint, _number(summary["seconds_total"]))
            )
        if fleet:
            for name in sorted(fleet):
                value = fleet[name]
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    metric = "leakchecker_fleet_%s" % name
                    lines.append("# TYPE %s gauge" % metric)
                    lines.append("%s %s" % (metric, _number(value)))
            for pid in sorted(fleet.get("per_worker", ())):
                stats = fleet["per_worker"][pid]
                lines.append(
                    'leakchecker_fleet_worker_shards{pid="%s"} %d'
                    % (pid, stats["shards"])
                )
                lines.append(
                    'leakchecker_fleet_worker_busy_seconds{pid="%s"} %s'
                    % (pid, _number(stats["busy_seconds"]))
                )
        return "\n".join(lines) + "\n"


def _number(value):
    """Prometheus-style number rendering (no trailing junk)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return "%d" % value
    return repr(float(value))
