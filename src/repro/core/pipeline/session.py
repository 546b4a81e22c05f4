"""The pipeline orchestrator: program-level artifacts + staged runs.

:class:`AnalysisSession` is the engine behind :class:`repro.core.
detector.LeakChecker`.  It owns the *program-level* artifacts — call
graph, points-to facade, class hierarchy slices, per-method statement
lists, per-statement store-edge resolutions, library-visibility and
started-thread summaries — and memoizes them across regions, so
multi-region workflows (``scan_all_loops``, Table 1, sweeps, component
harnesses) stop paying per-region rebuild costs.

Region checks run as an explicit stage pipeline::

    contexts -> region_stmts -> store_edges -> flows_out -> flows_in
             -> strong_updates -> matching -> pivot

each stage consuming/producing artifact dataclasses
(:mod:`repro.core.pipeline.artifacts`) and timed/counted into a
:class:`repro.core.pipeline.stats.PipelineStats` that surfaces through
``LeakReport.stats["stages"] / ["counters"]``.

Sessions are thread-compatible: the shared caches are only ever filled
with idempotently recomputable values, so concurrent region checks on
one session (the daemon's request threads) produce reports identical
to a serial scan.
"""

import threading
import time

from repro.callgraph.cha import build_cha
from repro.callgraph.otf import build_otf
from repro.callgraph.rta import build_rta
from repro.core.config import DetectorConfig
from repro.core.libmodel import library_visible_values
from repro.core.pipeline.artifacts import RegionArtifacts, StoreEdge
from repro.core.pipeline.contexts import enumerate_contexts
from repro.core.pipeline.flows_in import compute_flows_in
from repro.core.pipeline.flows_out import compute_flows_out
from repro.core.pipeline.matching import match_pairs
from repro.core.pipeline.postpasses import (
    apply_strong_updates,
    cleared_slots,
    pivot_roots,
)
from repro.core.pipeline.resources import compute_resources
from repro.core.pipeline.statements import collect_region_statements
from repro.core.pipeline.stats import PipelineStats
from repro.core.pipeline.store_edges import extract_store_edges
from repro.core.regions import RegionSpec
from repro.core.report import RESOURCE_LEAK, LeakFinding, LeakReport
from repro.core.summaries import (
    ProgramSummaries,
    RegionScoper,
    region_prefilter,
    summaries_enabled,
)
from repro.core.threads import started_thread_sites
from repro.errors import AnalysisError
from repro.ir.types import THREAD_CLASS
from repro.pta.queries import PointsTo

_CALLGRAPH_BUILDERS = {"rta": build_rta, "cha": build_cha, "otf": build_otf}


class SharedArtifacts:
    """Program-level artifacts reusable across regions *and* across
    sessions whose configurations agree on the substrate key
    (callgraph kind, demand-driven mode, query budget).

    All lazily-filled caches hold values that are pure functions of the
    program + substrate, so concurrent fills are benign (idempotent).

    ``callgraph`` lets the artifact cache supply a prebuilt call graph
    (hydrated from a snapshot) instead of running a builder.
    """

    def __init__(self, program, config, callgraph=None):
        self.program = program
        self.substrate_key = config.substrate_key()
        if callgraph is None:
            callgraph = _CALLGRAPH_BUILDERS[config.callgraph](program)
        self.callgraph = callgraph
        self.points_to = PointsTo(
            program,
            self.callgraph,
            demand_driven=config.demand_driven,
            budget=config.budget,
        )
        self.lock = threading.RLock()
        #: method sig -> tuple of statements (body walk, cached)
        self.method_stmts = {}
        #: store stmt uid -> tuple of resolved StoreEdge
        self.stmt_store_edges = {}
        #: lazy caches, each a pure function of program + substrate
        self._visible = None
        self._thread_sites = None
        self._thread_subclasses = None
        self._size_counts = None
        #: region-inference catalog (repro.core.infer), built on demand
        self._infer_catalog = None
        #: composed per-method summaries (repro.core.summaries)
        self._summaries = None
        #: digest-keyed intra payloads hydrated from a cache snapshot
        #: (possibly of an earlier program version), consumed by build
        self._summary_cache = None
        #: region scoper memoizing per-method-sig scoped solves
        self._scoper = None

    def visible_values(self):
        if self._visible is None:
            with self.lock:
                if self._visible is None:
                    self._visible = library_visible_values(
                        self.program, self.points_to.pag
                    )
        return self._visible

    def thread_sites(self):
        if self._thread_sites is None:
            with self.lock:
                if self._thread_sites is None:
                    self._thread_sites = started_thread_sites(
                        self.program, self.callgraph, self.points_to
                    )
        return self._thread_sites

    def thread_subclasses(self):
        if self._thread_subclasses is None:
            with self.lock:
                if self._thread_subclasses is None:
                    self._thread_subclasses = set(
                        self.program.subclasses(THREAD_CLASS)
                    )
        return self._thread_subclasses

    def summaries(self):
        """Composed per-method summaries of the program, built bottom-up
        over the call-graph SCC condensation; digest-matching intra
        payloads hydrated from a cache snapshot are reused."""
        if self._summaries is None:
            with self.lock:
                if self._summaries is None:
                    self._summaries = ProgramSummaries.build(
                        self.program,
                        self.callgraph,
                        cached_intra=self._summary_cache,
                    )
        return self._summaries

    def seed_summary_cache(self, methods):
        """Install digest-keyed intra payloads (``{sig: [digest,
        payload]}``) salvaged from a cache snapshot — possibly one of a
        *different* program version: entries are only reused when the
        per-method digest still matches."""
        if methods:
            with self.lock:
                if self._summary_cache is None:
                    self._summary_cache = {
                        sig: (entry[0], entry[1])
                        for sig, entry in methods.items()
                    }

    def region_scoper(self):
        """The per-region-method scoped-solve factory (summary mode)."""
        if self._scoper is None:
            with self.lock:
                if self._scoper is None:
                    self._scoper = RegionScoper(
                        self.points_to.pag, self.callgraph
                    )
        return self._scoper

    def size_counts(self):
        """(reachable method count, reachable simple-statement count)."""
        if self._size_counts is None:
            with self.lock:
                if self._size_counts is None:
                    reachable = self.callgraph.reachable_methods()
                    self._size_counts = (
                        len(reachable),
                        sum(
                            1
                            for m in reachable
                            for s in m.statements()
                            if s.is_simple
                        ),
                    )
        return self._size_counts


class AnalysisSession:
    """One program + one configuration, checkable over many regions.

    Parameters
    ----------
    program, config:
        As for :class:`~repro.core.detector.LeakChecker`.
    shared:
        Optional :class:`SharedArtifacts` to reuse (must have been built
        under a config with the same substrate key); used by
        :meth:`fork` and the sweep harness.
    reuse_artifacts:
        When ``False``, the per-method/per-statement/per-region caches
        are bypassed and every region pays full rebuild cost — the
        seed's behaviour, kept as a baseline for the reuse benchmarks.
    cache:
        Optional :class:`~repro.core.cache.store.ArtifactCache`.  On
        construction the session tries to hydrate its shared artifacts
        from the cache (skipping the whole warm-up on a hit);
        :meth:`persist` writes them back.  Cache hit/miss/save/eviction
        counters fold into :attr:`stats`.
    """

    def __init__(
        self, program, config=None, shared=None, reuse_artifacts=True, cache=None
    ):
        self.program = program
        self.config = config or DetectorConfig()
        self.cache = cache
        #: True when the shared artifacts came from the persistent cache
        #: (so re-persisting them after a run would be redundant).
        self.hydrated_from_cache = False
        if shared is None and cache is not None:
            shared = cache.load(program, self.config)
            self.hydrated_from_cache = shared is not None
        if shared is not None:
            if shared.substrate_key != self.config.substrate_key():
                raise AnalysisError(
                    "shared artifacts built under substrate %r cannot serve "
                    "config substrate %r"
                    % (shared.substrate_key, self.config.substrate_key())
                )
            if shared.program is not program:
                raise AnalysisError(
                    "shared artifacts belong to a different program"
                )
        self.shared = shared or SharedArtifacts(program, self.config)
        self.reuse_artifacts = reuse_artifacts
        #: session-lifetime aggregate of every pipeline run
        self.stats = PipelineStats()
        self._region_cache = {}
        self._cache_lock = threading.Lock()

    # -- shared-artifact accessors ------------------------------------------

    @property
    def callgraph(self):
        return self.shared.callgraph

    @property
    def points_to(self):
        return self.shared.points_to

    def fork(self, config):
        """A sibling session for ``config``, sharing the substrate (call
        graph, points-to, per-method indexes) when the new config keeps
        the same substrate key, rebuilding it otherwise."""
        shared = (
            self.shared
            if config.substrate_key() == self.shared.substrate_key
            else None
        )
        return AnalysisSession(
            self.program,
            config,
            shared=shared,
            reuse_artifacts=self.reuse_artifacts,
            cache=self.cache,
        )

    def infer_catalog(self):
        """The region-inference candidate catalog of this program
        (:func:`repro.core.infer.infer_candidates`), memoized on the
        shared substrate: the pass reuses the cached call graph and the
        per-method statement index, and repeated ``--auto-regions``
        scans on one session pay for inference once."""
        shared = self.shared
        if shared._infer_catalog is None:
            from repro.core.infer import infer_candidates

            with shared.lock:
                if shared._infer_catalog is None:
                    shared._infer_catalog = infer_candidates(
                        self.program,
                        self.callgraph,
                        statements=self.method_statements,
                    )
        return shared._infer_catalog

    def method_statements(self, sig):
        """Cached ``tuple(program.method(sig).statements())``."""
        if not self.reuse_artifacts:
            return tuple(self.program.method(sig).statements())
        cached = self.shared.method_stmts.get(sig)
        if cached is None:
            cached = tuple(self.program.method(sig).statements())
            self.shared.method_stmts[sig] = cached
        return cached

    def store_edges_for(self, stmt, stats=None):
        """Points-to-resolved edges of one store statement (cached)."""
        if self.reuse_artifacts:
            cached = self.shared.stmt_store_edges.get(stmt.uid)
            if cached is not None:
                if stats is not None:
                    stats.count("store_edge_cache_hits")
                return cached
        sig = stmt.method.sig
        src_sites = self.points_to.pts(sig, stmt.source)
        base_sites = self.points_to.pts(sig, stmt.base)
        edges = tuple(
            StoreEdge(src, stmt.field, base, stmt)
            for src in src_sites
            for base in base_sites
        )
        if self.reuse_artifacts:
            self.shared.stmt_store_edges[stmt.uid] = edges
            if stats is not None:
                stats.count("store_edge_cache_misses")
        return edges

    def library_visible_values(self):
        return self.shared.visible_values()

    def started_thread_sites(self):
        return self.shared.thread_sites()

    def thread_subclasses(self):
        return self.shared.thread_subclasses()

    def warm(self):
        """Precompute the shared lazy artifacts before a parallel scan
        snapshots them for its workers, so no worker repeats the heavy
        one-time work."""
        self.points_to.andersen  # force the whole-program solve
        if summaries_enabled():
            # Fleet workers and cache snapshots also share the
            # composed summaries (schema v5 carries the intra payloads).
            self.shared.summaries()
        self.shared.size_counts()
        if self.config.library_condition:
            self.shared.visible_values()
        if self.config.model_threads:
            self.shared.thread_sites()
            self.shared.thread_subclasses()
        return self

    def persist(self):
        """Warm the shared artifacts and write them to the session's
        cache; returns the entry path, or ``None`` without a cache."""
        if self.cache is None:
            return None
        self.warm()
        return self.cache.save(self.program, self.config, self.shared)

    def cache_counters(self):
        """The artifact-cache hit/miss/save/eviction counters observed
        by this session's cache (all zero without one)."""
        if self.cache is None:
            return {
                "artifact_cache_hits": 0,
                "artifact_cache_misses": 0,
                "artifact_cache_saves": 0,
                "artifact_cache_evictions": 0,
            }
        return dict(self.cache.stats)

    # -- the staged pipeline -------------------------------------------------

    def artifacts(self, region):
        """Run (or recall) the pipeline for ``region``; returns the
        memoized :class:`RegionArtifacts`."""
        key = _region_key(region)
        if self.reuse_artifacts:
            with self._cache_lock:
                cached = self._region_cache.get(key)
            if cached is not None:
                self.stats.count("region_cache_hits")
                return cached
        art = self._run_pipeline(region)
        if self.reuse_artifacts:
            with self._cache_lock:
                self._region_cache.setdefault(key, art)
        self.stats.merge(art.stats)
        return art

    def _region_scope(self, region, stats):
        """The scoped sub-PAG solve for ``region`` (summary mode), or
        ``None`` when the whole-program solve is already materialized
        (hydrated cache, prior fallback — then it is free and exact) or
        the region carries no method signature to root a footprint."""
        if self.points_to._andersen is not None:
            return None
        sig = getattr(region, "method_sig", None)
        if sig is None:
            return None
        scope, fresh = self.shared.region_scoper().scope_for(sig)
        if fresh:
            stats.count("summary_scoped_solves")
        return scope

    def _run_pipeline(self, region):
        stats = PipelineStats()
        summaries_on = summaries_enabled()
        with self.points_to.recording(stats.counters):
            with stats.stage("contexts"):
                context_art = enumerate_contexts(self, region, stats)
            with stats.stage("region_stmts"):
                region_stmts = collect_region_statements(
                    self, region, context_art, stats
                )

            discharged = frozenset()
            scope = None
            if summaries_on:
                with stats.stage("summaries"):
                    discharged = region_prefilter(
                        self.shared.summaries(), context_art, stats
                    )
                    scope = self._region_scope(region, stats)
            # The pre-filter proved every inside site CAPTURED: the
            # flows-in query loop cannot produce a pair, skip it whole.
            skip_flows_in = summaries_on and not (
                set(context_art.inside_sites) - discharged
            )

            with self.points_to.scope(scope):
                with stats.stage("store_edges"):
                    store_art = extract_store_edges(self, region_stmts, stats)
                with stats.stage("flows_out"):
                    out_art = compute_flows_out(
                        context_art, store_art, stats, discharged
                    )
                with stats.stage("flows_in"):
                    in_art = compute_flows_in(
                        self,
                        context_art,
                        region_stmts,
                        stats,
                        skip_all=skip_flows_in,
                    )

                cleared = frozenset()
                effective_out = out_art.pairs
                if self.config.strong_updates:
                    with stats.stage("strong_updates"):
                        cleared = cleared_slots(self, region_stmts, stats)
                        effective_out = apply_strong_updates(
                            out_art.pairs, cleared, stats
                        )

                with stats.stage("matching"):
                    match_art = match_pairs(
                        context_art, effective_out, in_art.pairs, stats
                    )

                leaking = sorted(
                    site
                    for site, v in match_art.verdicts.items()
                    if v.is_leak
                )
                if self.config.pivot:
                    with stats.stage("pivot"):
                        leaking = pivot_roots(
                            context_art, store_art, match_art, stats
                        )

                resources = None
                if self.config.model_resources:
                    with stats.stage("resources"):
                        resources = compute_resources(
                            self,
                            region,
                            context_art,
                            region_stmts,
                            match_art,
                            stats,
                        )
        return RegionArtifacts(
            region=region,
            contexts=context_art,
            statements=region_stmts,
            store_edges=store_art,
            flows_out=out_art,
            flows_in=in_art,
            effective_out=effective_out,
            cleared_slots=cleared,
            matches=match_art,
            leaking=leaking,
            resources=resources,
            stats=stats,
        )

    # -- public products -----------------------------------------------------

    def check(self, region):
        """Analyze one region; returns a :class:`LeakReport`."""
        started = time.perf_counter()
        art = self.artifacts(region)
        findings = self._build_findings(art)
        elapsed = time.perf_counter() - started

        methods, statements = self.shared.size_counts()
        contexts = art.contexts.contexts
        reportable = art.contexts.reportable
        stats = {
            "methods": methods,
            "statements": statements,
            "time_seconds": round(elapsed, 4),
            "loop_objects": sum(
                len(ctxs)
                for site, ctxs in contexts.items()
                if site in reportable
            ),
            "loop_alloc_sites": len(reportable),
            "reported_sites": len(findings),
            "reported_ctx_sites": sum(f.context_count for f in findings),
        }
        stats.update(self.config.describe())
        stats["stages"] = art.stats.stages_dict()
        stats["counters"] = art.stats.counters_dict()
        kernel = self.points_to.kernel_stats()
        if kernel:
            # Solver-kernel stats (flat kernel only).  Observability, not
            # part of the result: canonical output strips the block so
            # legacy/flat runs stay byte-identical.
            stats["kernel"] = kernel
        return LeakReport(region, findings, stats)

    def flow_relations(self, region):
        """The raw transitive flows-out / flows-in pair sets for a region.

        Exposed for validation against concrete executions: phase one of
        the analysis (computing these relations) is sound, and the
        property-based tests check exactly that.
        Returns ``(inside_sites, out_pairs, in_pairs)``.
        """
        art = self.artifacts(region)
        return (
            set(art.contexts.inside_sites),
            set(art.flows_out.pairs),
            set(art.flows_in.pairs),
        )

    def _build_findings(self, art):
        contexts = art.contexts.contexts
        thread_sites = art.contexts.thread_sites
        verdicts = art.matches.verdicts
        escape_stmts = art.flows_out.escape_stmts
        findings = []
        for site_label in art.leaking:
            verdict = verdicts[site_label]
            notes = []
            for base, _field in verdict.unmatched_keys:
                if base in thread_sites:
                    notes.append(
                        "escapes to a started thread object (%s)" % base
                    )
            findings.append(
                LeakFinding(
                    self.program.site(site_label),
                    verdict.era,
                    [(base, field) for base, field in verdict.unmatched_keys],
                    sorted(
                        contexts.get(site_label, ()), key=lambda c: c.sites
                    ),
                    # Sorted before truncating so the evidence sample is
                    # the same across runs and processes (the discovery
                    # order of escaping stores is traversal-dependent).
                    escape_stores=sorted(
                        escape_stmts.get(site_label, []),
                        key=lambda s: (s.method.sig, s.uid),
                    )[:3],
                    notes=notes,
                )
            )
        findings.extend(self._build_resource_findings(art))
        return findings

    def _build_resource_findings(self, art):
        """Resource-leak findings (after the heap findings, sorted by
        site) — acquired-but-never-released resource sites."""
        if art.resources is None:
            return []
        contexts = art.contexts.contexts
        verdicts = art.matches.verdicts
        findings = []
        for site_label in art.resources.leaking:
            verdict = art.resources.verdicts[site_label]
            heap_verdict = verdicts.get(site_label)
            redundant = (
                [(base, field) for base, field in heap_verdict.unmatched_keys]
                if heap_verdict is not None
                else []
            )
            acquire_names = sorted(
                {
                    "%s.%s" % (verdict.class_name, stmt.method_name)
                    for stmt in art.resources.acquire_stmts[site_label]
                }
            )
            notes = [
                "%s resource acquired via %s() and never released in the "
                "region" % (verdict.kind, name)
                for name in acquire_names
            ]
            findings.append(
                LeakFinding(
                    self.program.site(site_label),
                    verdict.era,
                    redundant,
                    sorted(
                        contexts.get(site_label, ()), key=lambda c: c.sites
                    ),
                    escape_stores=sorted(
                        art.resources.acquire_stmts[site_label],
                        key=lambda s: (s.method.sig, s.uid),
                    )[:3],
                    notes=notes,
                    kind=RESOURCE_LEAK,
                )
            )
        return findings


def _region_key(region):
    """Memoization key for a region spec (value-based, not identity)."""
    if isinstance(region, RegionSpec):
        if region.is_loop:
            return ("loop", region.method_sig, region.loop_label)
        return ("region", "RegionSpec", region.method_sig)
    sig = getattr(region, "method_sig", None)
    if sig is None:
        return ("identity", id(region))
    if getattr(region, "loop_label", None) is not None:
        return ("loop", sig, region.loop_label)
    return ("region", type(region).__name__, sig)
