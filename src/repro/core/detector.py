"""The interprocedural LeakChecker (Section 4's implementation design).

Given a program and a checkable region (a labelled loop or a method
treated as an artificial loop), the detector:

1. builds a call graph (RTA by default) and a points-to analysis
   (whole-program Andersen, or demand-driven CFL with fallback);
2. enumerates *context-sensitive allocation sites inside the region*:
   allocations lexically in the region body plus allocations in methods
   reachable from the region's call sites, each paired with the call
   string leading from the region to it (Table 1's ``LO``);
3. computes transitive flows-out relations — inside objects saved, through
   chains of in-region stores whose intermediate bases are inside objects,
   into a field of the *closest outside object*;
4. computes transitive flows-in relations from in-region loads, applying
   the stronger library condition (a load inside standard-library code
   counts only when the loaded value is returned to application code) and
   optionally treating started threads as outside objects;
5. matches the relations (Definition 3): sites that never flow back (ERA
   ``T``), or whose flows-out pair ``(o, g, b)`` has no flows-in pair on
   the same ``b.g``, are reported with their redundant edges, creation
   contexts, and sample escaping stores;
6. optionally applies pivot mode, keeping only the roots of leaking
   structures.

Since the staged-pipeline refactor the work happens in
:mod:`repro.core.pipeline`: :class:`LeakChecker` is a thin façade over an
:class:`~repro.core.pipeline.session.AnalysisSession`, which owns the
program-level artifacts, memoizes them across regions, and reports
per-stage timings and counters through ``LeakReport.stats``.
"""

from repro.core.config import DetectorConfig
from repro.core.pipeline.session import AnalysisSession

__all__ = ["DetectorConfig", "LeakChecker"]


class LeakChecker:
    """The leak detector; reusable across regions of one program.

    A façade over :class:`~repro.core.pipeline.session.AnalysisSession`
    keeping the historical constructor and attribute surface
    (``checker.callgraph``, ``checker.points_to``, ``checker.config``).
    Pass ``session=`` to share program-level artifacts with other
    workflows analyzing the same program.
    """

    def __init__(self, program, config=None, session=None):
        self.session = session or AnalysisSession(program, config)
        self.program = program
        self.config = self.session.config
        self.callgraph = self.session.callgraph
        self.points_to = self.session.points_to

    def check(self, region):
        """Analyze one region; returns a :class:`LeakReport`."""
        return self.session.check(region)

    def flow_relations(self, region):
        """The raw transitive flows-out / flows-in pair sets for a region.

        Exposed for validation against concrete executions: phase one of
        the analysis (computing these relations) is sound, and the
        property-based tests check exactly that.
        Returns ``(inside_sites, out_pairs, in_pairs)``.
        """
        return self.session.flow_relations(region)

