"""The public analysis facade: one class, one function.

:class:`Analyzer` and :func:`analyze` are the whole end-to-end surface:

* ``analyze(program, "Main.main:L1")`` checks one region and returns a
  :class:`~repro.core.report.LeakReport`;
* ``analyze(program)`` scans every candidate region and returns a
  :class:`~repro.core.scan.ScanResult`;
* ``Analyzer(program)`` keeps the warmed analysis session around for
  repeated regions, scans, and flow-relation introspection.

Regions are addressed by the canonical string form
(``"Class.method:LABEL"`` for a loop, ``"Class.method"`` for a whole
method as an artificial loop — see :meth:`RegionSpec.parse`) or by a
ready-made :class:`~repro.core.regions.RegionSpec`.

Callers that want the raw intraprocedural type/effect machinery use
the low-level phases directly: :func:`repro.core.typestate.analyze_loop`
and :func:`repro.core.flows.detect_leaks`.
"""

from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import RegionSpec, resolve_region
from repro.core.scan import scan_all_loops
from repro.pta.queries import Deadline

__all__ = ["Analyzer", "analyze"]


class Analyzer:
    """The leak-detection facade; reusable across regions of one program.

    Owns an :class:`~repro.core.pipeline.session.AnalysisSession`, so
    program-level artifacts (call graph, points-to, statement indexes)
    are built once and shared by every :meth:`analyze` call.  Pass
    ``session=`` to share them with other workflows analyzing the same
    program.
    """

    def __init__(self, program, config=None, *, session=None):
        self.session = session or AnalysisSession(program, config)
        self.program = program
        self.config = self.session.config

    def analyze(
        self,
        region=None,
        *,
        auto_regions=False,
        top=None,
        deadline_ms=None,
    ):
        """Analyze one region, or scan the program's candidate regions.

        ``region`` may be a canonical spec string
        (``"Class.method:LABEL"`` or ``"Class.method"``) or a
        :class:`~repro.core.regions.RegionSpec`; the result is that
        region's :class:`~repro.core.report.LeakReport`.

        With ``region=None`` the call scans instead, returning a
        :class:`~repro.core.scan.ScanResult` over every labelled loop —
        or, with ``auto_regions=True``, the regions selected by static
        inference (``top`` capping how many).

        ``deadline_ms`` bounds the call's wall-clock analysis effort:
        past the deadline, demand-driven points-to refinement stops and
        queries answer from the sound whole-program fallback, so the
        call completes (degraded, never truncated).  The report's
        ``deadline_expiries`` counter records whether degradation
        happened.  It bounds a scan the same way.
        """
        deadline = Deadline.after_ms(deadline_ms)
        if region is not None:
            with self.session.points_to.deadline_scope(deadline):
                return self.session.check(self._resolve(region))
        return scan_all_loops(
            self.program,
            session=self.session,
            auto_regions=auto_regions,
            top=top,
            deadline=deadline,
        )

    def flow_relations(self, region):
        """The raw transitive flows-out / flows-in pair sets for a region.

        Returns ``(inside_sites, out_pairs, in_pairs)`` — phase one of
        the analysis, exposed for validation against concrete
        executions.
        """
        return self.session.flow_relations(self._resolve(region))

    def _resolve(self, region):
        if isinstance(region, str):
            return resolve_region(self.program, region)
        if isinstance(region, RegionSpec):
            return region
        raise TypeError(
            "region must be a canonical spec string "
            "('Class.method:LABEL' or 'Class.method') or a RegionSpec, "
            "got %r" % (region,)
        )

    def __repr__(self):
        return "Analyzer(%d classes)" % len(self.program.classes)


def analyze(program, region=None, *, config=None, deadline_ms=None):
    """One-call analysis: ``analyze(program, region)`` → report.

    The module-level convenience over :class:`Analyzer` — see
    :meth:`Analyzer.analyze` for the ``region`` forms, the
    ``region=None`` scan behaviour and ``deadline_ms`` degradation.
    """
    return Analyzer(program, config).analyze(region, deadline_ms=deadline_ms)

