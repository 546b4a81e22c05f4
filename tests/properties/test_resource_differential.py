"""Differential properties of the resource stage against the concrete
resource-event oracle.

Mirror of :mod:`tests.properties.test_pivot_differential`: the static
resource stage (:mod:`repro.core.pipeline.resources`) is checked
against an interpreter-backed oracle (:mod:`tests.semantics.resource_oracle`)
over random acquire/release loop bodies.

Two regimes:

* **soundness** — every site the oracle finds concretely leaked (under
  any schedule) must be statically reported; checked across several
  fixed and seeded-random schedules per program;
* **exactness** — on branch-free shapes (``balanced``/``leaked``) the
  concrete behaviour is schedule-independent, so with at least one trip
  the static report must equal the oracle's answer exactly — and match
  the drawn shape.
"""

from hypothesis import given

from repro.core.config import DetectorConfig
from repro.core.pipeline import AnalysisSession
from repro.core.regions import RegionSpec
from repro.core.report import RESOURCE_LEAK
from repro.lang import parse_program
from repro.semantics.interp import FixedSchedule, RandomSchedule
from tests.semantics.resource_oracle import run_with_resource_log
from tests.properties.strategies import resource_loop_programs

_REGION = RegionSpec("Main.main", "L")

#: Schedules the soundness property samples: a few deterministic branch
#: patterns plus seeded-random ones.
_SCHEDULES = (
    lambda: FixedSchedule(default_trips=1),
    lambda: FixedSchedule(default_trips=3),
    lambda: FixedSchedule(default_trips=3, branches=False),
    lambda: FixedSchedule(default_trips=3, branches=[True, False]),
    lambda: RandomSchedule(seed=7, max_trips=4),
    lambda: RandomSchedule(seed=23, max_trips=4),
)


def _static_resource_sites(source):
    program = parse_program(source)
    session = AnalysisSession(program, DetectorConfig())
    report = session.check(_REGION)
    return sorted(
        finding.site.label
        for finding in report.findings
        if finding.kind == RESOURCE_LEAK
    )


class TestResourceDifferential:
    @given(program_and_shapes=resource_loop_programs())
    def test_static_sound_wrt_every_schedule(self, program_and_shapes):
        """Concretely leaked sites are always statically reported."""
        source, _ = program_and_shapes
        static = set(_static_resource_sites(source))
        program = parse_program(source)
        for make_schedule in _SCHEDULES:
            _, log = run_with_resource_log(program, schedule=make_schedule())
            concrete = set(log.leaked_sites("L"))
            assert concrete <= static, (
                "oracle found leaked resources the static stage missed: %s"
                % sorted(concrete - static)
            )

    @given(program_and_shapes=resource_loop_programs())
    def test_branch_free_shapes_are_exact(self, program_and_shapes):
        """Without conditional releases the static report IS the ground
        truth (for any executed iteration), and both match the drawn
        shapes."""
        source, shapes = program_and_shapes
        if any(shape == "conditional" for shape in shapes.values()):
            return
        expected = sorted(
            site for site, shape in shapes.items() if shape == "leaked"
        )
        static = _static_resource_sites(source)
        assert static == expected
        program = parse_program(source)
        _, log = run_with_resource_log(
            program, schedule=FixedSchedule(default_trips=2)
        )
        assert log.leaked_sites("L") == expected

    @given(program_and_shapes=resource_loop_programs())
    def test_conditional_release_reports_statically(self, program_and_shapes):
        """A release on one nondeterministic arm is not a must-release:
        the site stays in the static report, and the all-false schedule
        realizes the leak concretely."""
        source, shapes = program_and_shapes
        conditional = sorted(
            site for site, shape in shapes.items() if shape == "conditional"
        )
        if not conditional:
            return
        static = set(_static_resource_sites(source))
        assert set(conditional) <= static
        program = parse_program(source)
        _, log = run_with_resource_log(
            program, schedule=FixedSchedule(default_trips=2, branches=False)
        )
        assert set(conditional) <= set(log.leaked_sites("L"))
