"""Artifact dataclasses flowing between pipeline stages.

Each stage consumes the artifacts of earlier stages and produces exactly
one artifact; :class:`RegionArtifacts` bundles everything one run
computed for a region, from which the session builds the report (or
answers :meth:`flow_relations`).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Set, Tuple


@dataclass(eq=False)
class StoreEdge:
    """One resolved store: an object of ``src_site`` stored into field
    ``field`` of an object of ``base_site`` by statement ``stmt``."""

    src_site: str
    field: str
    base_site: str
    stmt: Any


@dataclass
class ContextArtifact:
    """Stage 1 output: context-sensitive allocation sites of the region.

    ``contexts`` maps an inside-site label to its set of call strings;
    ``region_methods`` are signatures whose bodies may execute during one
    iteration; ``thread_sites`` are forced-outside started-thread sites;
    ``inside_sites`` is ``set(contexts) - thread_sites``; ``reportable``
    keeps only application (non-library) inside sites.
    """

    contexts: Dict[str, Set]
    region_methods: Set[str]
    thread_sites: Set[str]
    inside_sites: Set[str]
    reportable: Set[str]


@dataclass
class RegionStatements:
    """Stage 2 output: statements that may execute during one iteration
    (region body plus bodies of all region methods), deduplicated by uid
    and in deterministic order."""

    statements: Tuple


@dataclass
class StoreEdgeArtifact:
    """Stage 3 output: points-to-resolved store edges of the region,
    indexed by source site for the flows-out traversal."""

    edges: List[StoreEdge]
    by_src: Dict[str, List[StoreEdge]]


@dataclass
class FlowsOutArtifact:
    """Stage 4 output: transitive flows-out pairs plus sample escaping
    store statements per origin site (report evidence)."""

    pairs: Set
    escape_stmts: Dict[str, List]


@dataclass
class FlowsInArtifact:
    """Stage 5 output: transitive flows-in pairs (library condition and
    thread modeling already applied)."""

    pairs: Set


class Verdict:
    """Per-site matching decision with its evidence."""

    __slots__ = ("site", "era", "unmatched_keys", "matched_keys")

    def __init__(self, site, era, unmatched_keys, matched_keys):
        self.site = site
        self.era = era
        self.unmatched_keys = unmatched_keys
        self.matched_keys = matched_keys

    @property
    def is_leak(self):
        return bool(self.unmatched_keys)

    def __repr__(self):
        return "Verdict(%s, era=%s, leak=%s)" % (
            self.site,
            self.era,
            self.is_leak,
        )


@dataclass
class MatchArtifact:
    """Stage 6 output: Definition-3 verdicts for reportable sites."""

    verdicts: Dict[str, Verdict]


class ResourceVerdict:
    """Per-site resource decision: acquired / must-released /
    flows-back, with the ERA the finding will carry."""

    __slots__ = (
        "site",
        "kind",
        "class_name",
        "era",
        "acquired",
        "released",
        "flows_back",
    )

    def __init__(self, site, kind, class_name, era, acquired, released, flows_back):
        self.site = site
        #: resource kind from the registry ("file", "connection", ...)
        self.kind = kind
        self.class_name = class_name
        self.era = era
        self.acquired = acquired
        #: definitely released on every path through one iteration
        self.released = released
        #: the object itself flows back into later iterations (heap ERA
        #: ``f``), so a later iteration may still release it
        self.flows_back = flows_back

    @property
    def is_leak(self):
        return self.acquired and not self.released and not self.flows_back

    def __repr__(self):
        return "ResourceVerdict(%s, %s, leak=%s)" % (
            self.site,
            self.kind,
            self.is_leak,
        )


@dataclass
class ResourceArtifact:
    """Stage 8 output: resource verdicts for acquired resource sites.
    ``leaking`` is the sorted list of resource-leaking site labels;
    ``acquire_stmts`` holds the acquire invocations per site (report
    evidence)."""

    verdicts: Dict[str, ResourceVerdict]
    leaking: List[str]
    acquire_stmts: Dict[str, List]


@dataclass
class RegionArtifacts:
    """Everything one pipeline run computed for a region.
    ``flows_out`` holds the *raw* pairs (what
    :meth:`AnalysisSession.flow_relations` exposes); ``effective_out``
    is after the strong-update post-pass, and feeds matching.
    ``leaking`` is the final (post-pivot) ordered list of site labels.
    """

    region: Any
    contexts: ContextArtifact
    statements: RegionStatements
    store_edges: StoreEdgeArtifact
    flows_out: FlowsOutArtifact
    flows_in: FlowsInArtifact
    effective_out: Set
    cleared_slots: FrozenSet
    matches: MatchArtifact
    leaking: List[str]
    resources: Any = None
    stats: Any = field(default=None, repr=False)
