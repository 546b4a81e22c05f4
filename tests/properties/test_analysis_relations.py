"""Property-based relations BETWEEN the analyses on random programs:
refinement orderings and monotonicity of the configuration knobs.
"""

from hypothesis import HealthCheck, given, settings

from repro.callgraph.otf import build_otf
from repro.callgraph.rta import build_rta
from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.regions import RegionSpec
from repro.errors import BudgetExhausted
from repro.lang import parse_program
from repro.pta import solve
from repro.pta.cfl import CFLPointsTo
from repro.pta.pag import PAG, VarNode

from tests.properties.strategies import loop_programs

# Example count comes from the hypothesis profile (see conftest.py).
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

REGION = RegionSpec("Main.main", "L")


@_SETTINGS
@given(loop_programs())
def test_cfl_refines_andersen(source):
    """Demand-driven answers are always contained in the whole-program
    Andersen answers (CFL only removes infeasible paths)."""
    program = parse_program(source)
    graph = build_rta(program)
    pag = PAG(program, graph)
    andersen = solve(pag)
    cfl = CFLPointsTo(pag, fallback=andersen)
    for sig, name in pag.var_table:
        node = VarNode(sig, name)
        try:
            refined = cfl.points_to_refined(node)
        except BudgetExhausted:
            continue
        assert refined <= set(andersen.pts(node))


@_SETTINGS
@given(loop_programs())
def test_strong_updates_only_remove_findings(source):
    """Strong-update modeling is a pure precision refinement: it never
    adds a report."""
    program = parse_program(source)
    baseline = LeakChecker(program, DetectorConfig(pivot=False)).check(REGION)
    refined = LeakChecker(
        program, DetectorConfig(pivot=False, strong_updates=True)
    ).check(REGION)
    assert set(refined.leaking_site_labels) <= set(baseline.leaking_site_labels)


@_SETTINGS
@given(loop_programs())
def test_pivot_only_removes_findings(source):
    """Pivot mode filters the report; it never invents sites."""
    program = parse_program(source)
    without = LeakChecker(program, DetectorConfig(pivot=False)).check(REGION)
    with_pivot = LeakChecker(program, DetectorConfig(pivot=True)).check(REGION)
    assert set(with_pivot.leaking_site_labels) <= set(without.leaking_site_labels)


@_SETTINGS
@given(loop_programs())
def test_otf_reachable_subset_of_rta(source):
    program = parse_program(source)
    rta_sigs = {m.sig for m in build_rta(program).reachable_methods()}
    otf_sigs = {m.sig for m in build_otf(program).reachable_methods()}
    assert otf_sigs <= rta_sigs


@_SETTINGS
@given(loop_programs())
def test_context_depth_monotone_in_loop_objects(source):
    """Raising the context-string bound k can only reveal more inside
    context-sensitive allocation sites, never fewer."""
    program = parse_program(source)
    shallow = LeakChecker(program, DetectorConfig(context_depth=1)).check(REGION)
    deep = LeakChecker(program, DetectorConfig(context_depth=8)).check(REGION)
    assert deep.stats["loop_objects"] >= shallow.stats["loop_objects"]


@_SETTINGS
@given(loop_programs())
def test_detector_deterministic(source):
    program = parse_program(source)
    a = LeakChecker(program).check(REGION)
    b = LeakChecker(program).check(REGION)
    assert a.leaking_site_labels == b.leaking_site_labels
    for fa, fb in zip(a.findings, b.findings):
        assert fa.redundant_edges == fb.redundant_edges
