"""Table 1's Stmts by walking every body: the oracle of the counts
recorded at seal.

``Program.seal_method`` records each method's simple statements
(``Method.simple``, which ``eliminate_dead_copies`` records again after
deleting statements; ``Method.simple_count`` is its length), and ``repro.callgraph.reachable.reachable_statement_count``,
``Program.statement_count`` and ``SharedArtifacts.size_counts`` sum
those integers.  The walks below count the statements of the bodies
as they stand, the way the replaced implementations did;
``tests/callgraph/test_size_counts.py`` checks that both agree.
"""


def reachable_statement_count(graph):
    """Table 1 ``Stmts``: simple statements in reachable methods."""
    total = 0
    for method in graph.reachable_methods():
        total += sum(1 for s in method.statements() if s.is_simple)
    return total


def program_statement_count(program):
    """Simple statements in every method of ``program``."""
    return sum(1 for s in program.all_statements() if s.is_simple)
