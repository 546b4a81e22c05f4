"""Whole-program size metrics derived from the call graph.

These produce the ``Mtds`` and ``Stmts`` columns of the paper's Table 1:
number of reachable methods and number of (Jimple-like) statements inside
them.  Statements are not walked here: each method's count is recorded
when ``Program.seal_method`` seals it.
"""


def reachable_method_count(graph):
    """Table 1 ``Mtds``: methods reachable from the entry points."""
    return len(graph.reachable_methods())


def reachable_statement_count(graph):
    """Table 1 ``Stmts``: simple statements in reachable methods."""
    return sum(method.simple_count for method in graph.reachable_methods())


def program_metrics(graph):
    """Both size metrics as a dict, for report tables."""
    return {
        "methods": reachable_method_count(graph),
        "statements": reachable_statement_count(graph),
    }
