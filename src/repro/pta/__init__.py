"""Points-to analyses: PAG construction, Andersen baseline, demand-driven
CFL-reachability with budgets, and calling-context (call string) support."""

from repro.pta.cfl import CFLPointsTo
from repro.pta.context import EMPTY, CallString
from repro.pta.kernel import analyze, solve_flat as solve
from repro.pta.pag import ENTER, EXIT, PAG, RETURN_VAR, VarNode
from repro.pta.queries import PointsTo

__all__ = [
    "CFLPointsTo",
    "CallString",
    "EMPTY",
    "ENTER",
    "EXIT",
    "PAG",
    "PointsTo",
    "RETURN_VAR",
    "VarNode",
    "analyze",
    "solve",
]
