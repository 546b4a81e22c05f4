"""Whole-program region scanning: check many candidate regions in one pass.

When no single suspicious loop is known, LeakChecker can sweep all
labelled loops — or, with ``auto_regions=True``, the regions the static
inference pass (:mod:`repro.core.infer`) selects — and aggregate the
per-region reports.  Each region is still checked independently — the
per-region semantics of the analysis is unchanged; scanning is a
convenience layer.

The scan rides on one :class:`~repro.core.pipeline.session.
AnalysisSession`, so program-level artifacts (call graph, points-to,
per-method statement and store-edge indexes, library visibility) are
built once and shared by every region; region inference reuses the same
cached call graph, so it adds one CFG sweep on top of a warm session.
A scan runs in the calling process; spreading programs over worker
processes is the daemon's job (``POST /analyze-batch`` behind ``repro
serve --workers N``), and so is keeping a program's substrate warm
between requests (:mod:`repro.server.pool`): a caller that holds a
session brings it with ``session=``.

Scan results carry a deterministic severity triage of every finding
(:mod:`repro.core.infer.triage`), the input of suppression-baseline
gating in CI.
"""

from repro.core.pipeline.session import AnalysisSession
from repro.core.pipeline.stats import PipelineStats, stats_from_report
from repro.core.ranking import rank_loops
from repro.core.regions import candidate_loops, region_text


class ScanResult:
    """Aggregated reports from scanning multiple regions."""

    def __init__(self, entries, infer_counters=None, infer_seconds=0.0):
        #: list of (Region, LeakReport), in scan order
        self.entries = entries
        #: region-inference work counters (``auto_regions`` scans only)
        self.infer_counters = dict(infer_counters or {})
        #: wall-clock seconds spent on region inference
        self.infer_seconds = infer_seconds
        self._triage = None

    def total_findings(self):
        return sum(len(report.findings) for _spec, report in self.entries)

    def leaking_sites(self):
        """Union of leaking site labels across all scanned regions."""
        sites = set()
        for _spec, report in self.entries:
            sites.update(report.leaking_site_labels)
        return sorted(sites)

    def triage(self):
        """Severity-ranked findings (most severe first, memoized); see
        :func:`repro.core.infer.triage.triage_entries`."""
        if self._triage is None:
            from repro.core.infer.triage import triage_entries

            self._triage = triage_entries(self.entries)
        return self._triage

    def aggregate_stats(self):
        """One :class:`PipelineStats` folding every region's stage
        timings and counters together — the scan-level profile.
        Region-inference work (a scan-level observation, not a
        per-region one) is merged on top."""
        total = None
        for _spec, report in self.entries:
            stats = stats_from_report(report.stats)
            total = stats if total is None else total.merge(stats)
        total = total or PipelineStats()
        for name, value in self.infer_counters.items():
            if value:
                total.count(name, value)
        if self.infer_counters:
            total.stages["infer"] = (
                total.stages.get("infer", 0.0) + self.infer_seconds
            )
        return total

    def format(self):
        lines = ["scanned %d regions, %d findings total" % (
            len(self.entries),
            self.total_findings(),
        )]
        for spec, report in self.entries:
            marker = "LEAKS" if report.findings else "clean"
            lines.append(
                "  [%s] %s -> %s"
                % (
                    marker,
                    region_text(spec),
                    ", ".join(report.leaking_site_labels) or "-",
                )
            )
        if self.total_findings():
            from repro.core.infer.triage import format_triage

            lines.append(format_triage(self.triage()))
        return "\n".join(lines)

    def as_dict(self):
        """JSON-ready representation: per-region reports plus
        aggregates and the severity triage."""
        return {
            "loops": [
                {
                    "method": spec.method_sig,
                    "loop": getattr(spec, "loop_label", None),
                    "kind": "loop"
                    if getattr(spec, "loop_label", None) is not None
                    else "region",
                    "report": report.as_dict(),
                }
                for spec, report in self.entries
            ],
            "total_findings": self.total_findings(),
            "leaking_sites": self.leaking_sites(),
            "triage": [entry.as_dict() for entry in self.triage()],
            "profile": self.aggregate_stats().as_dict(),
        }

    def to_json(self, indent=2, canonical=False):
        """Serialize the scan result to a JSON string (for CI pipelines).

        ``canonical=True`` zeroes timings and drops run-dependent cache
        counters (:mod:`repro.core.canonical`) so equivalent runs —
        serial, on a fleet worker, on a substrate the session pool
        hydrated — produce byte-identical text; the golden regression
        corpus stores this form.
        """
        import json

        if canonical:
            from repro.core.canonical import canonical_scan_dict

            return json.dumps(
                canonical_scan_dict(self.as_dict()), indent=indent, sort_keys=True
            )
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "ScanResult(%d regions, %d findings)" % (
            len(self.entries),
            self.total_findings(),
        )


def scan_all_loops(
    program,
    config=None,
    ranked=False,
    limit=None,
    session=None,
    specs=None,
    auto_regions=False,
    top=None,
    deadline=None,
):
    """Run the detector on a set of regions of ``program``.

    The region set, in precedence order:

    * ``specs`` — an explicit list of region specs (the CLI's repeated
      ``--region`` flag);
    * ``auto_regions=True`` — the regions selected by static inference
      (:func:`repro.core.infer.infer_candidates`), best-scored first;
      ``top`` caps how many are checked;
    * ``ranked=True`` — every labelled loop in structural-suspicion
      order (see :mod:`repro.core.ranking`), ``limit`` capping the
      count — the legacy triage workflow;
    * default — every labelled loop, in program order.

    A program with no candidate regions yields an empty
    :class:`ScanResult` (zero regions, zero findings) rather than an
    error.  ``session`` lets callers bring their own warmed
    :class:`AnalysisSession`; ``deadline`` (a
    :class:`repro.pta.queries.Deadline`) bounds the scan's demand-driven
    query work — past it, queries degrade to the Andersen fallback.
    """
    session = session or AnalysisSession(program, config)
    infer_counters = {}
    infer_seconds = 0.0
    if specs is not None:
        specs = list(specs)
    elif auto_regions:
        catalog = session.infer_catalog()
        specs = catalog.selected_specs(top)
        infer_counters = dict(catalog.counters)
        infer_counters["infer_candidates_selected"] = len(specs)
        infer_seconds = catalog.seconds
    elif ranked:
        specs = [entry.spec for entry in rank_loops(program, session.callgraph)]
    else:
        specs = candidate_loops(program)
    if limit is not None:
        specs = specs[:limit]
    with session.points_to.deadline_scope(deadline):
        entries = [(spec, session.check(spec)) for spec in specs]
    return ScanResult(
        entries, infer_counters=infer_counters, infer_seconds=infer_seconds
    )

