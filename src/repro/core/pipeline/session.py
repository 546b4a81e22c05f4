"""The pipeline orchestrator: one program's substrate + staged runs.

:class:`AnalysisSession` is the engine behind :class:`repro.core.
detector.LeakChecker`.  It holds the program's *substrate*
(:class:`SharedArtifacts`): the call graph, the points-to facade and
the lazy library-visibility, started-thread and size-count summaries,
built once and shared by every region the session checks, so
multi-region workflows (``scan_all_loops``, Table 1, sweeps, component
harnesses) pay for the whole-program solve once.

Each region check runs an explicit stage pipeline over that substrate::

    contexts -> region_stmts -> store_edges -> flows_out -> flows_in
             -> strong_updates -> matching -> pivot

each stage consuming/producing artifact dataclasses
(:mod:`repro.core.pipeline.artifacts`) and timed/counted into a
:class:`repro.core.pipeline.stats.PipelineStats` that surfaces through
``LeakReport.stats["stages"] / ["counters"]``.  Nothing per region is
kept: checking a region again runs its stages again.

Sessions are thread-compatible: the substrate's lazies are only ever
filled with idempotently recomputable values, under one lock, so
concurrent region checks on one session produce reports identical to a
serial scan.
"""

import threading
import time

from repro.callgraph.cha import build_cha
from repro.callgraph.otf import build_otf
from repro.callgraph.reachable import (
    reachable_method_count,
    reachable_statement_count,
)
from repro.callgraph.rta import build_rta
from repro.core.config import DetectorConfig
from repro.core.libmodel import library_visible_values
from repro.core.pipeline.artifacts import RegionArtifacts
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
from repro.core.report import RESOURCE_LEAK, LeakFinding, LeakReport
from repro.core.threads import started_thread_sites
from repro.errors import AnalysisError
from repro.ir.types import THREAD_CLASS
from repro.pta.queries import PointsTo

_CALLGRAPH_BUILDERS = {"rta": build_rta, "cha": build_cha, "otf": build_otf}


class SharedArtifacts:
    """A program's substrate, reusable across regions *and* across
    sessions whose configurations agree on the substrate key
    (callgraph kind, demand-driven mode, query budget).

    The lazy summaries are pure functions of the program + substrate,
    so concurrent fills are benign (idempotent).

    ``callgraph`` lets a caller supply a prebuilt call graph (the
    substrate codec hydrating one from a snapshot) instead of running a
    builder.
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
        #: lazy summaries, each a pure function of program + substrate
        self._visible = None
        self._thread_sites = None
        self._thread_subclasses = None
        self._size_counts = None

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
                    sites = started_thread_sites(
                        self.program, self.callgraph, self.points_to
                    )
                    if self.points_to.degraded():
                        return sites
                    self._thread_sites = sites
        return self._thread_sites

    def thread_subclasses(self):
        if self._thread_subclasses is None:
            with self.lock:
                if self._thread_subclasses is None:
                    self._thread_subclasses = set(
                        self.program.subclasses(THREAD_CLASS)
                    )
        return self._thread_subclasses

    def size_counts(self):
        """(reachable method count, reachable simple-statement count):
        Table 1's Mtds and Stmts, the second summed from the counts
        ``Program.seal_method`` recorded, without walking a body."""
        if self._size_counts is None:
            with self.lock:
                if self._size_counts is None:
                    self._size_counts = (
                        reachable_method_count(self.callgraph),
                        reachable_statement_count(self.callgraph),
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
        :meth:`fork`, the sweep harness and the daemon's session pool,
        which hydrates it from the substrate bytes it keeps
        (:func:`repro.core.cache.serialize.load_shared`).
    """

    def __init__(self, program, config=None, shared=None):
        self.program = program
        self.config = config or DetectorConfig()
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
        #: session-lifetime aggregate of every pipeline run
        self.stats = PipelineStats()

    # -- shared-artifact accessors ------------------------------------------

    @property
    def callgraph(self):
        return self.shared.callgraph

    @property
    def points_to(self):
        return self.shared.points_to

    def fork(self, config):
        """A sibling session for ``config``, sharing the substrate when
        the new config keeps the same substrate key, rebuilding it
        otherwise."""
        shared = (
            self.shared
            if config.substrate_key() == self.shared.substrate_key
            else None
        )
        return AnalysisSession(self.program, config, shared=shared)

    def library_visible_values(self):
        return self.shared.visible_values()

    def started_thread_sites(self):
        return self.shared.thread_sites()

    def thread_subclasses(self):
        return self.shared.thread_subclasses()

    def warm(self):
        """Precompute the shared lazy artifacts (the whole-program solve,
        size counts, library visibility and thread summaries), so a
        snapshot taken afterwards carries them and a session hydrated
        from it never repeats the heavy one-time work."""
        self.points_to.andersen  # force the whole-program solve
        self.shared.size_counts()
        if self.config.library_condition:
            self.shared.visible_values()
        if self.config.model_threads:
            self.shared.thread_sites()
            self.shared.thread_subclasses()
        return self

    # -- the staged pipeline -------------------------------------------------

    def artifacts(self, region):
        """Run the pipeline for ``region``; returns its
        :class:`RegionArtifacts` and folds its stats into
        :attr:`stats`."""
        art = self._run_pipeline(region)
        self.stats.merge(art.stats)
        return art

    def _run_pipeline(self, region):
        stats = PipelineStats()
        with self.points_to.recording(stats.counters):
            with stats.stage("contexts"):
                context_art = enumerate_contexts(self, region, stats)
            with stats.stage("region_stmts"):
                region_stmts = collect_region_statements(
                    self, region, context_art, stats
                )
            with stats.stage("store_edges"):
                store_art = extract_store_edges(self, region_stmts, stats)
            with stats.stage("flows_out"):
                out_art = compute_flows_out(context_art, store_art, stats)
            with stats.stage("flows_in"):
                in_art = compute_flows_in(
                    self, context_art, region_stmts, stats
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
                site for site, v in match_art.verdicts.items() if v.is_leak
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
            # Solver-kernel stats: observability, not part of the result
            # (canonical output drops the block).
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

