"""Substrate micro-benchmarks: parser, call graphs, points-to solvers.

These track the cost of the building blocks the detector composes — the
analog of the infrastructure share of the paper's Time column.
"""

import pytest

from repro.bench.apps import build_app
from repro.callgraph import build_cha, build_rta
from repro.ir.printer import program_to_text
from repro.lang import parse_program
from repro.pta import solve
from repro.pta.cfl import CFLPointsTo
from repro.pta.pag import PAG, VarNode


@pytest.fixture(scope="module")
def mysql_app():
    # The largest subject by statements: the stress case for substrates.
    return build_app("mysql-connector-j")


@pytest.fixture(scope="module")
def mysql_source(mysql_app):
    return program_to_text(mysql_app.program)


def test_parse_largest_program(benchmark, mysql_source):
    program = benchmark(parse_program, mysql_source)
    assert program.entry == "Main.main"


def test_build_cha(benchmark, mysql_app):
    graph = benchmark(build_cha, mysql_app.program)
    assert graph.reachable_methods()


def test_build_rta(benchmark, mysql_app):
    graph = benchmark(build_rta, mysql_app.program)
    assert graph.reachable_methods()


def test_andersen_whole_program(benchmark, mysql_app):
    graph = build_rta(mysql_app.program)
    pag = PAG(mysql_app.program, graph)
    result = benchmark(solve, pag)
    assert result.pts(VarNode("Main.main", "conn"))


def test_cfl_single_query(benchmark, mysql_app):
    """The demand-driven pitch: one query without whole-program solving."""
    graph = build_rta(mysql_app.program)
    pag = PAG(mysql_app.program, graph)

    def one_query():
        solver = CFLPointsTo(pag)  # fresh memo: measure a cold query
        return solver.points_to_refined(VarNode("Main.main", "conn"))

    result = benchmark(one_query)
    assert result == {"connection"}


def test_cfl_cheaper_than_andersen_for_one_query(mysql_app):
    """Wall-clock sanity (not a benchmark fixture): answering a single
    variable's points-to on demand must beat solving the whole program."""
    import time

    graph = build_rta(mysql_app.program)
    pag = PAG(mysql_app.program, graph)

    t0 = time.perf_counter()
    solve(pag)
    whole = time.perf_counter() - t0

    t0 = time.perf_counter()
    CFLPointsTo(pag).points_to_refined(VarNode("Main.main", "conn"))
    single = time.perf_counter() - t0

    assert single < whole
