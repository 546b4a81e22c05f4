"""Differential test of the integer PAG against the object builder.

:class:`repro.pta.pag.PAG` fills the kernel's integer tables in one walk
of the IR.  They must equal what the object builder of
:mod:`tests.pta.pag_oracle` and its interning (``FlatPAG``) produce,
table by table and in order: variable ids, site bits, field and
call-site ids, edge arrays and index lists all reach the solve, the
substrate bytes and the CFL traversal's visiting order.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.pag import PAG

from tests.properties.strategies import dispatch_programs, loop_programs
from tests.pta import pag_oracle

#: Every integer table of the PAG.
TABLES = (
    "var_table",
    "var_index",
    "site_table",
    "site_index",
    "field_table",
    "field_index",
    "callsite_table",
    "callsite_index",
    "new_mask",
    "copy_src",
    "copy_dst",
    "assigns_into",
    "load_base",
    "load_field",
    "load_target",
    "store_base",
    "store_field",
    "store_source",
    "loads_into",
    "loads_by_field",
    "stores_by_field",
)


def _assert_same_tables(program):
    callgraph = build_rta(program)
    pag = PAG(program, callgraph)
    flat = pag_oracle.FlatPAG(pag_oracle.PAG(program, callgraph))
    for name in TABLES:
        got, want = getattr(pag, name), getattr(flat, name)
        if isinstance(want, dict):
            # Dicts compare without order; their order is part of it.
            got, want = list(got.items()), list(want.items())
        assert got == want, name
    return pag


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_app(name):
    assert _assert_same_tables(build_app(name).program).var_table


@pytest.mark.parametrize("name", retention_names())
def test_retention_tiling_x10(name):
    program = build_scaled(name, factor=10).program
    assert _assert_same_tables(program).var_table


def test_stress_program():
    assert _assert_same_tables(parse_program(stress_source())).var_table


def test_memocache_x24():
    program = build_scaled("memocache", factor=24).program
    assert _assert_same_tables(program).var_table


def test_sites_follow_new_edge_order():
    """Sites are numbered by their target node, the node first assigned
    by ``new`` first — not in statement order."""
    pag = _assert_same_tables(
        parse_program(
            """entry Main.main;
            class Main { static method main() {
              a = new Main @s1;
              b = new Main @s2;
              a = new Main @s3;
              c = b;
            } }"""
        )
    )
    assert pag.site_table == ["s1", "s3", "s2"]
    assert pag.new_mask[:2] == [0b011, 0b100]


_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(loop_programs(allow_nested_loops=True, allow_threads=True))
def test_random_loop_programs(source):
    _assert_same_tables(parse_program(source))


@_SETTINGS
@given(dispatch_programs())
def test_random_dispatch_programs(source):
    _assert_same_tables(parse_program(source))
