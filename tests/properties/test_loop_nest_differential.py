"""Differential test of region inference's loop nest against the CFG.

:func:`repro.core.infer.classify.natural_loops` reads each labelled
natural loop's nest depth and block count from the structured body in
one walk.  The oracle builds the method's basic-block graph
(:mod:`tests.cfg.graph`), finds its natural loops from the back edges
and the dominator tree (:func:`tests.cfg.loops.find_loops`) and nests
them (:func:`tests.cfg.loops.loop_nest_depths`).  Both must give every
method the same label -> ``(nest depth, blocks)`` map, a loop that is
not natural being absent from both.

Inputs are every method of the 13 corpus apps, the five retention
tilings ×10, a method of 600 sequential loops, and the random methods
of :func:`~tests.properties.strategies.control_flow_methods` (``if``,
loops and ``return``s nested a few deep, so many loops are not natural
and many natural depths differ from the lexical ones) and
:func:`~tests.properties.strategies.inference_programs`.
"""

import pytest
from hypothesis import example, given

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.core.infer.classify import natural_loops
from repro.lang import parse_program

from tests.cfg.graph import build_cfg
from tests.cfg.loops import find_loops, loop_nest_depths
from tests.conftest import sequential_source
from tests.properties.strategies import control_flow_methods, inference_programs


def _oracle(method):
    loops = find_loops(build_cfg(method))
    depths = loop_nest_depths(loops)
    return {
        loop.label: (depths[loop.header.index], len(loop.blocks))
        for loop in loops
        if loop.label is not None
    }


def _assert_same_nests(program):
    """Compare every method of ``program``; returns the loops compared."""
    compared = 0
    for method in program.all_methods():
        expected = _oracle(method)
        assert natural_loops(method) == expected, method.sig
        compared += len(expected)
    return compared


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_app(name):
    program = build_app(name).program
    compared = _assert_same_nests(program)
    assert compared == sum(len(m.loops()) for m in program.all_methods())


@pytest.mark.parametrize("name", retention_names())
def test_retention_tiling_x10(name):
    assert _assert_same_nests(build_scaled(name, factor=10).program)


def test_600_sequential_loops():
    program = parse_program(sequential_source(loops=600))
    assert _assert_same_nests(program) == 600


@given(control_flow_methods())
@example(
    "class A { field f; method m(p) { loop L1 (*) { if (*) { "
    "loop L2 (*) { a = p; } return; } else { loop L3 (*) { return; } } "
    "loop L4 (*) { loop L5 (*) { b = p; } return; } } return; "
    "loop L6 (*) { } } }"
)
def test_nested_control_flow(source):
    _assert_same_nests(parse_program(source, validate=False))


@given(inference_programs())
def test_inference_programs(source):
    _assert_same_nests(parse_program(source))
