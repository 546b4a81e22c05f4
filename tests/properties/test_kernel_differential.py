"""Differential pinning of the integer-flat kernel to the dict solver.

The dict-of-sets Andersen solver (:mod:`tests.pta.andersen_oracle`) is
this repo's oracle: simple enough to audit by eye.  On every generated program, the flat kernel's
:class:`~repro.pta.kernel.FlatAndersenResult` must agree with it on the
entire public result API — ``pts``, ``field_pts``, ``may_alias`` and
``heap_points_to_pairs`` — and the agreement must survive a snapshot /
hydrate round trip (the artifact-cache and shared-memory encoding).
"""

from hypothesis import HealthCheck, given, settings

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.kernel import hydrate_flat, snapshot_flat, solve_flat
from repro.pta.pag import PAG

from tests.properties.strategies import loop_programs
from tests.pta.andersen_oracle import solve as oracle_solve

_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_pag(source):
    program = parse_program(source)
    return PAG(program, build_rta(program))


def _all_var_nodes(pag):
    """Every variable node of an object PAG (the oracle's own graph)."""
    nodes = set(pag.new_edges)
    for edge in pag.assign_edges:
        nodes.add(edge.src)
        nodes.add(edge.dst)
    for edge in pag.load_edges:
        nodes.add(edge.base)
        nodes.add(edge.target)
    for edge in pag.store_edges:
        nodes.add(edge.base)
        nodes.add(edge.source)
    return nodes


def _assert_equivalent(oracle, flat):
    nodes = sorted(
        _all_var_nodes(oracle.pag), key=lambda n: (n.method_sig, n.name)
    )
    for node in nodes:
        assert flat.pts(node) == oracle.pts(node), node

    oracle_heap = sorted(oracle.heap_points_to_pairs())
    assert sorted(flat.heap_points_to_pairs()) == oracle_heap

    slot_keys = {(base, field) for base, field, _ in oracle_heap}
    slot_keys |= set(flat._slot_reps)
    slot_keys |= set(oracle._field_pts)
    for base, field in sorted(slot_keys):
        assert flat.field_pts(base, field) == oracle.field_pts(base, field)

    # may_alias over a deterministic sample of node pairs.
    sample = nodes[:12]
    for a in sample:
        for b in sample:
            assert flat.may_alias(a, b) == oracle.may_alias(a, b), (a, b)


@_SETTINGS
@given(loop_programs())
def test_flat_kernel_matches_dict_solver(source):
    pag = _build_pag(source)
    _assert_equivalent(oracle_solve(pag), solve_flat(pag))


@_SETTINGS
@given(loop_programs(allow_nested_loops=True))
def test_flat_kernel_matches_on_nested_loop_programs(source):
    pag = _build_pag(source)
    _assert_equivalent(oracle_solve(pag), solve_flat(pag))


@_SETTINGS
@given(loop_programs())
def test_flat_snapshot_roundtrip_matches(source):
    """snapshot_flat -> hydrate_flat preserves every query answer."""
    pag = _build_pag(source)
    oracle = oracle_solve(pag)
    hydrated = hydrate_flat(snapshot_flat(solve_flat(pag)))
    _assert_equivalent(oracle, hydrated)
