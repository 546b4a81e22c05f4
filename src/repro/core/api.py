"""The public analysis facade: one class, one function.

Historically the package grew three overlapping entry points —
``check_program`` (program + region → report), ``analyze_loop`` (method
+ loop label → raw type/effect result) and ``detect_leaks`` (raw result
→ verdicts).  :class:`Analyzer` and :func:`analyze` subsume all three:

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

The old names remain importable from :mod:`repro` and
:mod:`repro.core` as thin shims that emit :class:`DeprecationWarning`
and forward; the underlying low-level phases keep their non-deprecated
homes (:func:`repro.core.typestate.analyze_loop`,
:func:`repro.core.flows.detect_leaks`) for callers that really want the
raw type/effect machinery.
"""

import warnings

from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import Region, RegionSpec, resolve_region
from repro.core.scan import scan_all_loops
from repro.pta.queries import Deadline

__all__ = [
    "Analyzer",
    "analyze",
    "analyze_loop",
    "check_program",
    "detect_leaks",
]


class Analyzer:
    """The leak-detection facade; reusable across regions of one program.

    Owns an :class:`~repro.core.pipeline.session.AnalysisSession`, so
    program-level artifacts (call graph, points-to, statement indexes)
    are built once and shared by every :meth:`analyze` call.  Pass
    ``cache=`` (an :class:`~repro.core.cache.store.ArtifactCache`) to
    hydrate/persist those artifacts across processes, or ``session=``
    to share them with other workflows analyzing the same program.
    """

    def __init__(self, program, config=None, *, cache=None, session=None):
        self.session = session or AnalysisSession(program, config, cache=cache)
        self.program = program
        self.config = self.session.config

    def analyze(
        self,
        region=None,
        *,
        auto_regions=False,
        top=None,
        parallel=False,
        max_workers=None,
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
        inference (``top`` capping how many).  ``parallel`` and
        ``max_workers`` fan the scan out over worker processes exactly
        as :func:`repro.core.scan.scan_all_loops` does.

        ``deadline_ms`` bounds the call's wall-clock analysis effort:
        past the deadline, demand-driven points-to refinement stops and
        queries answer from the sound whole-program fallback, so the
        call completes (degraded, never truncated).  The report's
        ``deadline_expiries`` counter records whether degradation
        happened.  Ignored by a scan that fans out over workers.
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
            parallel=parallel,
            max_workers=max_workers,
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
        if isinstance(region, Region):
            return region
        raise TypeError(
            "region must be a canonical spec string "
            "('Class.method:LABEL' or 'Class.method') or a RegionSpec, "
            "got %r" % (region,)
        )

    def __repr__(self):
        return "Analyzer(%d classes)" % len(self.program.classes)


def analyze(program, region=None, *, config=None, cache=None, deadline_ms=None):
    """One-call analysis: ``analyze(program, region)`` → report.

    The module-level convenience over :class:`Analyzer` — see
    :meth:`Analyzer.analyze` for the ``region`` forms, the
    ``region=None`` scan behaviour and ``deadline_ms`` degradation.
    """
    return Analyzer(program, config, cache=cache).analyze(
        region, deadline_ms=deadline_ms
    )


def _deprecated(old, new):
    warnings.warn(
        "%s is deprecated; use %s" % (old, new),
        DeprecationWarning,
        stacklevel=3,
    )


def check_program(program, region, config=None):
    """Deprecated: use :func:`analyze`."""
    _deprecated("repro.check_program()", "repro.analyze(program, region)")
    from repro.core.detector import check_program as _impl

    return _impl(program, region, config)


def analyze_loop(
    method, loop_label, initial_state=None, max_iterations=100, strong_updates=False
):
    """Deprecated: use :func:`analyze` for end-to-end detection, or
    :func:`repro.core.typestate.analyze_loop` for the raw type/effect
    phase."""
    _deprecated(
        "repro.analyze_loop()",
        "repro.analyze(program, region) or repro.core.typestate.analyze_loop",
    )
    from repro.core.typestate import analyze_loop as _impl

    return _impl(
        method,
        loop_label,
        initial_state=initial_state,
        max_iterations=max_iterations,
        strong_updates=strong_updates,
    )


def detect_leaks(result):
    """Deprecated: use :func:`analyze` for end-to-end detection, or
    :func:`repro.core.flows.detect_leaks` for raw Definition-3
    matching."""
    _deprecated(
        "repro.detect_leaks()",
        "repro.analyze(program, region) or repro.core.flows.detect_leaks",
    )
    from repro.core.flows import detect_leaks as _impl

    return _impl(result)
