"""Per-stage observability: timings and work counters for pipeline runs.

Every pipeline run produces one :class:`PipelineStats` carrying

* ``stages`` — wall-clock seconds per pipeline stage, in execution
  order (contexts, region_stmts, store_edges, flows_out, flows_in,
  strong_updates, matching, pivot);
* ``counters`` — monotone work counters: points-to query traffic (CFL
  queries issued, budget exhaustions, Andersen fallbacks), artifact
  sizes (contexts enumerated, store edges, flow pairs produced and
  matched), and cache behaviour (per-method index hits/misses, region
  cache hits).

The object is cheap, mergeable (scan aggregates per-loop stats), and
serializes into ``LeakReport.stats["stages"] / ["counters"]`` so JSON
consumers and the ``--profile`` CLI flag see the same data.
"""

import time
from contextlib import contextmanager

#: Counter keys reported for every pipeline run, even when zero, so
#: downstream consumers can rely on their presence.
BASE_COUNTERS = (
    "var_queries",
    "heap_queries",
    "cfl_queries",
    "cfl_memo_hits",
    "budget_exhaustions",
    "deadline_expiries",
    "andersen_fallbacks",
    "contexts_enumerated",
    "region_statements",
    "store_edges",
    "flow_pairs_out",
    "flow_pairs_in",
    "flow_pairs_matched",
    "flow_pairs_unmatched",
    "region_cache_hits",
)

#: Region-inference work counters (scan-level bookkeeping, folded into
#: the scan profile by ``ScanResult.aggregate_stats`` on ``scan
#: --auto-regions`` runs).  They are pure functions of the program +
#: call graph — deterministic across runs and backends — so canonical
#: JSON keeps them, unlike the volatile cache counters.
INFER_COUNTERS = (
    "infer_methods_analyzed",
    "infer_loops_classified",
    "infer_method_candidates",
    "infer_candidates_selected",
)


class PipelineStats:
    """Timings and counters for one pipeline run (or an aggregate).

    ``kernel`` holds the points-to kernel's solve statistics (node
    count, bitset bytes, SCCs collapsed, propagation rounds) once the
    whole-program solve has run; empty before.  It describes the one
    shared solve — not per-region work — so merging keeps the maximum
    per key rather than summing.
    """

    __slots__ = ("stages", "counters", "kernel")

    def __init__(self):
        self.stages = {}
        self.counters = {name: 0 for name in BASE_COUNTERS}
        self.kernel = {}

    @contextmanager
    def stage(self, name):
        """Time a pipeline stage; additive when a stage runs twice."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    def count(self, name, delta=1):
        self.counters[name] = self.counters.get(name, 0) + delta

    def merge(self, other):
        """Fold another run's stats into this one (scan aggregation)."""
        for name, seconds in other.stages.items():
            self.stages[name] = self.stages.get(name, 0.0) + seconds
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.kernel.items():
            self.kernel[name] = max(self.kernel.get(name, 0), value)
        return self

    def stages_dict(self):
        """JSON-ready stage timings (rounded, stable key order)."""
        return {name: round(seconds, 6) for name, seconds in self.stages.items()}

    def counters_dict(self):
        return dict(self.counters)

    def as_dict(self):
        out = {"stages": self.stages_dict(), "counters": self.counters_dict()}
        if self.kernel:
            out["kernel"] = dict(self.kernel)
        return out

    def format(self):
        """Human-readable profile block for the ``--profile`` CLI flag."""
        lines = ["pipeline stages:"]
        total = sum(self.stages.values())
        for name, seconds in self.stages.items():
            share = (seconds / total * 100.0) if total else 0.0
            lines.append("  %-16s %9.4fs %5.1f%%" % (name, seconds, share))
        lines.append("counters:")
        for name in sorted(self.counters):
            value = self.counters[name]
            if value:
                lines.append("  %-26s %d" % (name, value))
        zero = [n for n in sorted(self.counters) if not self.counters[n]]
        if zero:
            lines.append("  (zero: %s)" % ", ".join(zero))
        if self.kernel:
            lines.append("points-to kernel:")
            for name in sorted(self.kernel):
                lines.append("  %-26s %d" % (name, self.kernel[name]))
        return "\n".join(lines)

    def __repr__(self):
        return "PipelineStats(%d stages, %d counters)" % (
            len(self.stages),
            len(self.counters),
        )


def stats_from_report(report_stats):
    """Rebuild a :class:`PipelineStats` from ``LeakReport.stats`` (the
    inverse of :meth:`PipelineStats.as_dict`); tolerant of reports that
    predate the pipeline (missing keys)."""
    stats = PipelineStats()
    for name, seconds in (report_stats.get("stages") or {}).items():
        stats.stages[name] = stats.stages.get(name, 0.0) + seconds
    for name, value in (report_stats.get("counters") or {}).items():
        stats.counters[name] = stats.counters.get(name, 0) + value
    for name, value in (report_stats.get("kernel") or {}).items():
        stats.kernel[name] = max(stats.kernel.get(name, 0), value)
    return stats
