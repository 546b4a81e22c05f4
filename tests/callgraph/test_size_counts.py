"""The size counts summed from the per-method counts recorded at seal
equal a walk of every body (:mod:`tests.callgraph.size_count_oracle`),
and so does every method's sealed statement tuple (``Method.simple``,
which the call graph, the PAG and context enumeration iterate).

Checked on the 13 corpus apps, the x10 tilings of the retention apps,
the stress program, a ``ProgramBuilder`` program and a program loaded
from a ``.jbc`` container; on each again after ``optimize_program``
deletes dead copies; and on a session whose substrate came through
``dump_shared``/``load_shared``, whose snapshot carries the counts.
"""

import pytest

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.callgraph.reachable import program_metrics
from repro.core.pipeline.session import AnalysisSession
from repro.ir.builder import ProgramBuilder
from repro.ir.optimize import optimize_program
from repro.ir.stmts import simple_statements
from repro.lang import parse_program

from tests.callgraph.size_count_oracle import (
    program_statement_count,
    reachable_statement_count,
)
from tests.conftest import pooled_session


def _built():
    pb = ProgramBuilder()
    main = pb.cls("Main").static_method("main")
    main.new("h", "Holder", site="h")
    main.copy("t", "h")
    main.null("dead")
    with main.loop("L1") as body:
        body.new("x", "Item", site="x")
        body.copy("y", "x")
        body.store("h", "slot", "y")
        then, other = body.if_()
        then.copy("z", "y")
        other.invoke(None, "h", "keep", ["x"], site="k")
    pb.cls("Holder").field("slot").method("keep", ["v"]).store(
        "this", "slot", "v"
    )
    pb.cls("Item")
    pb.cls("Dead").method("unused").copy("a", "this")
    return pb.build(entry="Main.main")


def _loaded(tmp_path):
    from repro.bytecode import dump, load

    path = str(tmp_path / "prog.jbc")
    dump(build_app("derby").program, path)
    return load(path)


#: name -> a function of ``tmp_path`` making a fresh program
_PROGRAMS = {
    **{
        name: (lambda tmp_path, name=name: build_app(name).program)
        for name in corpus_names()
    },
    **{
        "%s-x10" % name: (
            lambda tmp_path, name=name: parse_program(
                build_scaled(name, factor=10).source
            )
        )
        for name in retention_names()
    },
    "stress": lambda tmp_path: parse_program(stress_source()),
    "builder": lambda tmp_path: _built(),
    "jbc": _loaded,
}


def _assert_counts_match(session):
    program = session.program
    graph = session.shared.callgraph
    expected = (len(graph.reachable_methods()), reachable_statement_count(graph))
    assert expected[1] > 0
    assert session.shared.size_counts() == expected
    assert program_metrics(graph) == {
        "methods": expected[0],
        "statements": expected[1],
    }
    assert program.statement_count() == program_statement_count(program)
    for method in program.all_methods():
        assert method.simple == tuple(simple_statements(method.body)), method


@pytest.mark.parametrize("optimized", [False, True], ids=["sealed", "optimized"])
@pytest.mark.parametrize("name", list(_PROGRAMS))
def test_size_counts_match_a_walk_of_every_body(name, optimized, tmp_path):
    def fresh():
        program = _PROGRAMS[name](tmp_path)
        removed = optimize_program(program)["dead_copies_removed"] if optimized else 0
        return program, removed

    program, removed = fresh()
    if optimized:
        assert removed > 0  # every one of these programs has a dead copy
    session = AnalysisSession(program)
    _assert_counts_match(session)
    _assert_counts_match(pooled_session(session, fresh()[0]))


def test_optimizer_recounts_what_it_deletes():
    program = build_app("mysql-connector-j").program
    before = program.statement_count()
    removed = optimize_program(program)["dead_copies_removed"]
    assert removed > 0
    assert program.statement_count() == before - removed
    assert program.statement_count() == program_statement_count(program)


def test_builder_program_counts_each_simple_statement():
    program = _built()
    counts = {m.sig: m.simple_count for m in program.all_methods()}
    assert counts == {"Main.main": 8, "Holder.keep": 1, "Dead.unused": 1}
