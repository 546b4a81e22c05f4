"""Property-based validation of the static analyses against the concrete
semantics, on randomly generated loop programs.

The central claims checked here mirror the paper's soundness discussion:
phase one (computing flows-out/flows-in relations) is sound, so every
heap flow observed at run time must be covered by the abstract relations.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.regions import RegionSpec
from repro.core.typestate import analyze_loop
from repro.errors import AnalysisError
from repro.ir.printer import program_to_text
from repro.lang import parse_program
from repro.semantics.interp import RandomSchedule, execute
from repro.semantics.leaks import analyze_trace

from tests.properties.strategies import loop_programs, store_only_programs

# Example count comes from the hypothesis profile (see conftest.py):
# 40 under the default "ci" profile, far more under "nightly".
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

REGION = RegionSpec("Main.main", "L")


def _run_concrete(source, seed):
    program = parse_program(source)
    trace = execute(program, schedule=RandomSchedule(seed=seed, max_trips=4))
    return program, trace


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_flows_out_phase_is_sound(source, seed):
    """Every concrete in-loop store of an inside object into an outside
    object appears in the abstract flows-out relation (with the matching
    field on the outside edge)."""
    program, trace = _run_concrete(source, seed)
    checker = LeakChecker(program)
    inside, out_pairs, _ = checker.flow_relations(REGION)
    direct = {(p.site, p.field, p.base) for p in out_pairs}
    for eff in trace.stores:
        if eff.iteration_in("L") == 0:
            continue
        if not eff.source.is_inside("L") or eff.base.is_inside("L"):
            continue
        assert eff.source.site in inside
        assert (eff.source.site, eff.field, eff.base.site) in direct


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_flows_in_phase_is_sound(source, seed):
    """Every concrete in-loop retrieval of an inside object from an
    outside object appears in the abstract flows-in relation."""
    program, trace = _run_concrete(source, seed)
    checker = LeakChecker(program)
    inside, _, in_pairs = checker.flow_relations(REGION)
    abstract = {(p.site, p.field, p.base) for p in in_pairs}
    for eff in trace.loads:
        if eff.iteration_in("L") == 0:
            continue
        if not eff.value.is_inside("L") or eff.base.is_inside("L"):
            continue
        assert (eff.value.site, eff.field, eff.base.site) in abstract


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_escaping_sites_have_flows_out(source, seed):
    """Ground-truth escaping sites (Definition 1's escaping structures)
    are covered by the transitive flows-out relation."""
    program, trace = _run_concrete(source, seed)
    truth = analyze_trace(trace, "L")
    checker = LeakChecker(program)
    _, out_pairs, _ = checker.flow_relations(REGION)
    origins = {p.site for p in out_pairs}
    for site in truth.escaping_sites():
        assert site in origins


@_SETTINGS
@given(store_only_programs(), st.integers(min_value=0, max_value=2**16))
def test_no_reads_means_every_escape_is_reported(source, seed):
    """In a loop without heap reads, no flows-in can exist: every site
    with a concrete escape must be reported as a leak (ERA T)."""
    program, trace = _run_concrete(source, seed)
    truth = analyze_trace(trace, "L")
    report = LeakChecker(program, DetectorConfig(pivot=False)).check(REGION)
    reported = set(report.leaking_site_labels)
    for site in truth.escaping_sites():
        assert site in reported


@_SETTINGS
@given(loop_programs())
def test_printer_round_trip(source):
    """print(parse(print(p))) is a fixpoint on generated programs."""
    program = parse_program(source)
    text = program_to_text(program)
    assert program_to_text(parse_program(text)) == text


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_typestate_effects_over_approximate_concrete(source, seed):
    """When the formal checker accepts the program (types never reach
    TOP at a heap access), its abstract store effects cover every
    concrete in-loop store, site-for-site."""
    program, trace = _run_concrete(source, seed)
    try:
        result = analyze_loop(program.method("Main.main"), "L")
    except AnalysisError:
        return  # TOP reached a heap access: outside the formal fragment
    abstract = {
        (e.src_site, e.field, e.base_site) for e in result.effects.stores
    }
    for eff in trace.stores:
        if eff.iteration_in("L") == 0:
            continue
        assert (eff.source.site, eff.field, eff.base.site) in abstract


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_typestate_era_covers_escapes(source, seed):
    """If any concrete instance of a site escapes its creating iteration
    into an outside object, the formal ERA of that site is not 'c'."""
    program, trace = _run_concrete(source, seed)
    try:
        result = analyze_loop(program.method("Main.main"), "L")
    except AnalysisError:
        return
    truth = analyze_trace(trace, "L")
    for site in truth.escaping_sites():
        assert result.era_of(site) in ("f", "T")


@_SETTINGS
@given(loop_programs(), st.integers(min_value=0, max_value=2**16))
def test_interpreter_deterministic(source, seed):
    """Identical schedules produce identical traces."""
    program = parse_program(source)
    t1 = execute(program, schedule=RandomSchedule(seed=seed))
    program2 = parse_program(source)
    t2 = execute(program2, schedule=RandomSchedule(seed=seed))
    assert [o.site for o in t1.objects] == [o.site for o in t2.objects]
    assert len(t1.stores) == len(t2.stores)
    assert len(t1.loads) == len(t2.loads)
