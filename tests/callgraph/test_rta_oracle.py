"""Differential test of the indexed RTA builder against the oracle.

:func:`repro.callgraph.rta.build_rta` must add exactly the edges of the
re-dispatching fixed point in :mod:`tests.callgraph.rta_oracle`, in the
same order: reach order, the substrate bytes and canonical output all
follow ``graph.edges``.  Each test compares the
ordered ``(caller sig, invoke uid, callee sig)`` lists.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.callgraph.rta import build_rta
from repro.lang import parse_program

from tests.callgraph.rta_oracle import build_rta as oracle_build_rta
from tests.properties.strategies import dispatch_programs


def _edges(graph):
    return [(e.caller.sig, e.invoke.uid, e.callee.sig) for e in graph.edges]


def _assert_same_edges(program):
    edges = _edges(build_rta(program))
    assert edges == _edges(oracle_build_rta(program))
    return edges


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_app(name):
    assert _assert_same_edges(build_app(name).program)


@pytest.mark.parametrize("name", retention_names())
def test_retention_tiling_x10(name):
    assert _assert_same_edges(build_scaled(name, factor=10).program)


def test_stress_program():
    _assert_same_edges(parse_program(stress_source()))


def test_memocache_x24():
    assert _assert_same_edges(build_scaled("memocache", factor=24).program)


#: Depth of the ``extends`` chain: far past the interpreter's recursion
#: limit, so a recursive dispatch walk would fail on it.
CHAIN_DEPTH = 3000


def _chain_source(depth):
    """``K0 <- K1 <- ... <- K<depth-1>``: ``K0`` declares ``m`` and ``n``,
    every 500th class overrides ``m``, and ``main`` instantiates the
    leaf, a middle class and the root around virtual calls."""
    classes = ["class K0 { method m() { return; } method n() { return; } }"]
    for i in range(1, depth):
        body = "method m() { return; }" if i % 500 == 0 else ""
        classes.append("class K%d extends K%d { %s }" % (i, i - 1, body))
    main = """
entry Main.main;
class Main { static method main() {
  a = new K%d @leaf;
  call a.m() @c1;
  b = new K%d @mid;
  call b.n() @c2;
  c = new K0 @root;
  call c.m() @c3;
} }
""" % (depth - 1, depth // 2)
    return main + "\n".join(classes)


def test_deep_extends_chain():
    edges = _assert_same_edges(parse_program(_chain_source(CHAIN_DEPTH)))
    # An instantiation adds one edge per pending invoke; a new invoke
    # takes its targets by the least class name reaching each.
    assert [callee for _, _, callee in edges] == [
        "K2500.m",  # c1 on the leaf K2999
        "K1500.m",  # c1 again, once K1500 is instantiated
        "K0.n",  # c2
        "K0.m",  # c1 again, once K0 is instantiated
        "K0.m",  # c3: reached by K0 ...
        "K1500.m",  # ... by K1500 ...
        "K2500.m",  # ... and by K2999
    ]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dispatch_programs())
def test_random_dispatch_programs(source):
    _assert_same_edges(parse_program(source))
