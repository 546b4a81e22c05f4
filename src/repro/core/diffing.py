"""Leak diffing: compare two analyses by finding fingerprint.

The unit of comparison is :meth:`LeakFinding.fingerprint` — region spec
text + allocation-site label + sorted redundant-edge set, plus the kind
of a non-heap finding (:func:`~repro.core.report.finding_fingerprint`
computes it for both forms of a finding) — the same
identity the triage/suppression baselines use, invariant under
unrelated code motion, run order and scan backend.  Two analyses (cold,
cache-hydrated, before/after an edit, or loaded back from ``scan --json``
output) diff to three sets:

* **new** — fingerprints only the second analysis reports,
* **fixed** — fingerprints only the first analysis reports,
* **unchanged** — fingerprints both report.

:class:`LeakDelta` renders as text, JSON, or canonical JSON (sorted,
content-only — byte-identical however either input was produced).
"""

import json

from repro.core.regions import region_text
from repro.core.report import HEAP_LEAK, finding_fingerprint
from repro.core.scan import ScanResult


def _spec_text_of_loop_entry(entry):
    if entry.get("loop") is not None:
        return "%s:%s" % (entry["method"], entry["loop"])
    return entry["method"]


def scan_fingerprints(scan):
    """``{fingerprint -> detail dict}`` of one analysis.

    ``scan`` is a :class:`~repro.core.scan.ScanResult` or its
    ``as_dict()`` / parsed ``--json`` form.
    """
    if isinstance(scan, ScanResult):
        fingerprints = {}
        for spec, report in scan.entries:
            region = region_text(spec)
            for finding in report.findings:
                fingerprints[finding.fingerprint(region)] = {
                    "region": region,
                    "site": finding.site.label,
                    "edges": [
                        "%s.%s" % (base, field)
                        for base, field in finding.redundant_edges
                    ],
                }
        return fingerprints
    fingerprints = {}
    for entry in scan.get("loops", ()):
        region = _spec_text_of_loop_entry(entry)
        for finding in entry.get("report", {}).get("findings", ()):
            edges = [
                (edge["base"], edge["field"])
                for edge in finding.get("redundant_edges", ())
            ]
            fingerprint = finding_fingerprint(
                region, finding["site"], edges, finding.get("kind", HEAP_LEAK)
            )
            fingerprints[fingerprint] = {
                "region": region,
                "site": finding["site"],
                "edges": sorted("%s.%s" % edge for edge in edges),
            }
    return fingerprints


class LeakDelta:
    """The finding-level delta between two analyses."""

    __slots__ = ("new", "fixed", "unchanged", "details")

    def __init__(self, new, fixed, unchanged, details):
        self.new = sorted(new)
        self.fixed = sorted(fixed)
        self.unchanged = sorted(unchanged)
        #: fingerprint -> {region, site, edges}
        self.details = details

    @property
    def is_clean(self):
        """True when nothing changed between the two analyses."""
        return not self.new and not self.fixed

    @property
    def is_regression(self):
        """True when the second analysis reports findings the first
        did not."""
        return bool(self.new)

    def _describe(self, fingerprint):
        detail = self.details.get(fingerprint, {})
        edges = ", ".join(detail.get("edges", ())) or "-"
        return "%s: site %s via %s" % (
            detail.get("region", "?"),
            detail.get("site", "?"),
            edges,
        )

    def format(self):
        lines = [
            "leak diff: %d new, %d fixed, %d unchanged"
            % (len(self.new), len(self.fixed), len(self.unchanged))
        ]
        for label, group in (
            ("new", self.new),
            ("fixed", self.fixed),
            ("unchanged", self.unchanged),
        ):
            for fingerprint in group:
                lines.append("  [%s] %s" % (label, self._describe(fingerprint)))
        return "\n".join(lines)

    def as_dict(self):
        def expand(group):
            return [
                dict(self.details.get(fp, {}), fingerprint=fp) for fp in group
            ]

        return {
            "new": expand(self.new),
            "fixed": expand(self.fixed),
            "unchanged": expand(self.unchanged),
            "counts": {
                "new": len(self.new),
                "fixed": len(self.fixed),
                "unchanged": len(self.unchanged),
            },
        }

    def to_json(self, indent=2, canonical=False):
        """JSON text; ``canonical=True`` is the byte-comparable form
        (the dict is already content-only, so canonical differs only in
        guaranteeing sorted keys — kept for CLI symmetry with
        ``check``/``scan``)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "LeakDelta(new=%d, fixed=%d, unchanged=%d)" % (
            len(self.new),
            len(self.fixed),
            len(self.unchanged),
        )


def diff_analyses(before, after):
    """Diff two analyses (ScanResults and/or scan dicts) by fingerprint."""
    before_fps = scan_fingerprints(before)
    after_fps = scan_fingerprints(after)
    details = dict(before_fps)
    details.update(after_fps)
    return LeakDelta(
        new=set(after_fps) - set(before_fps),
        fixed=set(before_fps) - set(after_fps),
        unchanged=set(before_fps) & set(after_fps),
        details=details,
    )
