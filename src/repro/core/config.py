"""Detector configuration: the tunable knobs of the analysis.

Lives in its own module so both the thin :class:`LeakChecker` façade
(:mod:`repro.core.detector`) and the staged pipeline
(:mod:`repro.core.pipeline`) can import it without a cycle.
"""

from repro.errors import AnalysisError


class DetectorConfig:
    """Tunable knobs of the detector; defaults match the paper's setup.

    Attributes
    ----------
    callgraph:
        ``"rta"`` (default), ``"cha"``, or ``"otf"`` (points-to-refined).
    demand_driven:
        Answer points-to queries with the CFL solver (budget + fallback)
        instead of only the whole-program Andersen result.
    budget:
        Per-query budget for the demand-driven solver.
    context_depth:
        Maximum call-string length for context enumeration (``k``).  It
        is also the horizon of the region's code: the later stages scan
        only the methods within ``k`` calls of the region, so a leak whose
        escaping store lies deeper is not reported.  Figure 1's ``a5``,
        stored two calls below loop ``L1``, needs ``k >= 2``.
    max_contexts_per_site:
        Cap on enumerated contexts per allocation site.
    library_condition:
        Apply the stronger flows-in condition to library loads.
    model_threads:
        Treat started ``Thread`` objects as outside objects.
    pivot:
        Report only the roots of leaking structures.
    model_resources:
        Track acquire/release pairs on resource-class allocation sites
        (files, connections, sockets — the registry in
        :mod:`repro.javalib.resources`) and report acquired-but-never-
        released sites as ``resource-leak`` findings.
    strong_updates:
        Model destructive updates (``x.f = null``): flows-out pairs into a
        heap slot that region code nulls are dropped.  This implements the
        paper's future-work precision refinement; it is OFF by default
        because the allocation-site abstraction makes it unsound when a
        site has multiple live instances or the null-store is conditional.
    """

    def __init__(
        self,
        callgraph="rta",
        demand_driven=False,
        budget=100_000,
        context_depth=8,
        max_contexts_per_site=64,
        library_condition=True,
        model_threads=False,
        pivot=True,
        model_resources=True,
        strong_updates=False,
    ):
        if callgraph not in ("rta", "cha", "otf"):
            raise AnalysisError("unknown call graph kind %r" % callgraph)
        for name, value, low in (
            ("budget", budget, 0),
            ("context_depth", context_depth, 0),
            ("max_contexts_per_site", max_contexts_per_site, 1),
        ):
            if value < low:
                raise AnalysisError(
                    "%s must be at least %d, got %r" % (name, low, value)
                )
        self.callgraph = callgraph
        self.demand_driven = demand_driven
        self.budget = budget
        self.context_depth = context_depth
        self.max_contexts_per_site = max_contexts_per_site
        self.library_condition = library_condition
        self.model_threads = model_threads
        self.pivot = pivot
        self.model_resources = model_resources
        self.strong_updates = strong_updates

    def describe(self):
        return {
            "callgraph": self.callgraph,
            "demand_driven": self.demand_driven,
            "budget": self.budget,
            "context_depth": self.context_depth,
            "max_contexts_per_site": self.max_contexts_per_site,
            "library_condition": self.library_condition,
            "model_threads": self.model_threads,
            "pivot": self.pivot,
            "model_resources": self.model_resources,
            "strong_updates": self.strong_updates,
        }

    def substrate_key(self):
        """The configuration slice that determines the *program-level*
        substrate (call graph + points-to).  Sessions whose configs agree
        on this key can share one :class:`~repro.core.pipeline.session.
        SharedArtifacts` instance."""
        return (self.callgraph, self.demand_driven, self.budget)
