"""Leak reports: what the tool hands to the developer.

A report mirrors the paper's description of LeakChecker output: for each
leaking object it shows the allocation site, the redundant reference edge
(the outside object's field through which the object escapes and is never
retrieved), and the calling contexts under which the object is created and
saved — the information the case studies credit for fast root-cause
identification.
"""


#: Finding kinds: classic heap retention vs. acquired-but-never-released
#: resources (files, connections, sockets — see repro.javalib.resources).
HEAP_LEAK = "heap-leak"
RESOURCE_LEAK = "resource-leak"


def finding_fingerprint(region, site, edges, kind=HEAP_LEAK):
    """:meth:`LeakFinding.fingerprint` from a finding's parts, so a
    finding and its :meth:`~LeakFinding.as_dict` form diff alike."""
    edges = ";".join(sorted("%s.%s" % (base, field) for base, field in edges))
    fingerprint = "%s|%s|%s" % (region, site, edges)
    if kind != HEAP_LEAK:
        return "%s|%s" % (fingerprint, kind)
    return fingerprint


class LeakFinding:
    """One reported leaking allocation site with its evidence."""

    __slots__ = (
        "site",
        "era",
        "redundant_edges",
        "creation_contexts",
        "escape_stores",
        "notes",
        "kind",
    )

    def __init__(
        self,
        site,
        era,
        redundant_edges,
        creation_contexts,
        escape_stores=None,
        notes=None,
        kind=HEAP_LEAK,
    ):
        self.site = site
        self.era = era
        #: list of (base_site_label, field) — the never-read references
        self.redundant_edges = list(redundant_edges)
        #: list of CallString — contexts under which instances are created
        self.creation_contexts = list(creation_contexts)
        #: sample store statements realizing the escape (heap findings)
        #: or acquire invocations (resource findings), for navigation
        self.escape_stores = list(escape_stores or [])
        self.notes = list(notes or [])
        #: ``"heap-leak"`` or ``"resource-leak"``
        self.kind = kind

    @property
    def context_count(self):
        """Number of context-sensitive allocation sites this finding spans
        (the unit of Table 1's LS column)."""
        return max(1, len(self.creation_contexts))

    def fingerprint(self, region):
        """Stable identity of this finding for suppression baselines.

        Combines the region spec text, the allocation-site label, and
        the sorted redundant-edge set — invariant under unrelated code
        motion and run order, but a new escape path or site reads as a
        new finding.  ``region`` is the region spec string (see
        :func:`repro.core.regions.region_text`).  Non-heap kinds append
        the kind, so a heap and a resource finding at one site never
        collide (heap fingerprints keep their historical form, so
        existing suppression baselines stay valid).
        """
        return finding_fingerprint(
            region, self.site.label, self.redundant_edges, self.kind
        )

    def format(self):
        if self.kind == RESOURCE_LEAK:
            head = "leaking resource site: %s (ERA %s)" % (self.site.label, self.era)
        else:
            head = "leaking allocation site: %s (ERA %s)" % (self.site.label, self.era)
        lines = [head]
        lines.append("  allocated in: %s" % self.site.method_sig)
        for base, field in self.redundant_edges:
            lines.append("  redundant reference: %s.%s" % (base, field))
        for ctx in self.creation_contexts:
            lines.append("  created under: %s" % ctx)
        evidence = (
            "acquired by" if self.kind == RESOURCE_LEAK else "escaping store"
        )
        for stmt in self.escape_stores:
            lines.append("  %s: %r in %s" % (evidence, stmt, stmt.method.sig))
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)

    def as_dict(self):
        """JSON-ready representation of this finding."""
        return {
            "site": self.site.label,
            "kind": self.kind,
            "type": str(self.site.type),
            "allocated_in": self.site.method_sig,
            "era": self.era,
            "redundant_edges": [
                {"base": base, "field": field}
                for base, field in self.redundant_edges
            ],
            "contexts": [list(ctx.sites) for ctx in self.creation_contexts],
            "escape_stores": [
                {"method": stmt.method.sig, "uid": stmt.uid}
                for stmt in self.escape_stores
            ],
            "notes": list(self.notes),
        }

    def __repr__(self):
        return "LeakFinding(%s, %d ctx)" % (self.site.label, self.context_count)


class LeakReport:
    """Full output of one detector run."""

    def __init__(self, region, findings, stats):
        self.region = region
        self.findings = findings
        #: analysis statistics: loop object counts, timing, configuration
        self.stats = dict(stats)

    @property
    def leaking_site_labels(self):
        return [f.site.label for f in self.findings]

    @property
    def context_sensitive_count(self):
        """Total context-sensitive leaking allocation sites (LS)."""
        return sum(f.context_count for f in self.findings)

    def format(self):
        head = "LeakChecker report for %s" % self.region.describe()
        lines = [head, "=" * len(head)]
        for key in sorted(self.stats):
            if isinstance(self.stats[key], dict):
                continue  # stages/counters render via --profile and JSON
            lines.append("%s: %s" % (key, self.stats[key]))
        lines.append("")
        if not self.findings:
            lines.append("no leaks detected")
        for finding in self.findings:
            lines.append(finding.format())
            lines.append("")
        return "\n".join(lines)

    def as_dict(self):
        """JSON-ready representation of the whole report."""
        return {
            "region": self.region.describe(),
            "stats": dict(self.stats),
            "findings": [f.as_dict() for f in self.findings],
        }

    def to_json(self, indent=2, canonical=False):
        """Serialize the report to a JSON string (for CI pipelines).

        ``canonical=True`` zeroes timings and drops run-dependent cache
        counters (:mod:`repro.core.canonical`) so equivalent runs emit
        byte-identical text — the form the golden corpus stores.
        """
        import json

        if canonical:
            from repro.core.canonical import canonical_report_dict

            return json.dumps(
                canonical_report_dict(self.as_dict()),
                indent=indent,
                sort_keys=True,
            )
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "LeakReport(%d findings, %d ctx-sites)" % (
            len(self.findings),
            self.context_sensitive_count,
        )


class ReportDiff:
    """The delta between two reports (e.g. before and after a fix)."""

    __slots__ = ("fixed", "introduced", "remaining")

    def __init__(self, fixed, introduced, remaining):
        #: site labels reported before but not after
        self.fixed = sorted(fixed)
        #: site labels reported after but not before
        self.introduced = sorted(introduced)
        #: site labels reported in both
        self.remaining = sorted(remaining)

    @property
    def is_clean_fix(self):
        """True when the change removed findings without adding any."""
        return bool(self.fixed) and not self.introduced

    def format(self):
        lines = []
        for label, sites in (
            ("fixed", self.fixed),
            ("introduced", self.introduced),
            ("remaining", self.remaining),
        ):
            lines.append("%s: %s" % (label, ", ".join(sites) or "-"))
        return "\n".join(lines)

    def __repr__(self):
        return "ReportDiff(fixed=%d, introduced=%d, remaining=%d)" % (
            len(self.fixed),
            len(self.introduced),
            len(self.remaining),
        )


def diff_reports(before, after):
    """Compare two leak reports by reported allocation sites.

    The fix-verification workflow: run the detector, change the code,
    re-run, and diff — ``is_clean_fix`` confirms the change removed
    findings without surfacing new ones.
    """
    before_sites = set(before.leaking_site_labels)
    after_sites = set(after.leaking_site_labels)
    return ReportDiff(
        fixed=before_sites - after_sites,
        introduced=after_sites - before_sites,
        remaining=before_sites & after_sites,
    )
