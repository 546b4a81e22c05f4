"""Thread modeling: started threads as outside objects (Mikou case study).

Objects kept alive by running threads defeat the basic loop-escape
formulation because threads are not explicitly modeled.  The paper's
workaround, reproduced here: tag an object as *outside* the loop when

1. it is an instance of ``Thread`` (or a subclass), and
2. ``start`` has been invoked on it somewhere in reachable code —

regardless of whether the thread may terminate (thread termination is
undecidable, and this over-approximation is the documented source of the
high false-positive rate on Mikou).

Tagging is a *soundness* obligation: a ``start`` receiver that resolves
to no sites leaves the thread object inside the loop, stores into it
look inside-to-inside, and the leak it keeps alive silently disappears
from the report.  Receiver resolution therefore always runs through a
fallback-aware path — a demand-driven query that exhausts its budget
(or returns empty after an over-pruned traversal) is re-answered from
the sound whole-program Andersen result, with the facade's
``budget_exhaustions`` counter bumped so the degradation is observable.
"""

from repro.errors import BudgetExhausted
from repro.ir.stmts import InvokeStmt
from repro.ir.types import THREAD_CLASS
from repro.pta.pag import VarNode


def _receiver_sites(points_to, method_sig, var):
    """Allocation sites of a ``start``-call receiver, fallback-aware.

    ``points_to`` is usually the :class:`~repro.pta.queries.PointsTo`
    facade (whose ``pts`` already falls back on budget exhaustion); a
    raw refined-only solver (:class:`~repro.pta.cfl.CFLPointsTo`) is
    also accepted — its ``BudgetExhausted`` is caught here and answered
    from its fallback.  In either case an *empty* demand-driven answer
    is re-checked against the whole-program result: at a soundness-
    critical site an exhausted or over-pruned traversal must not
    silently drop the receiver.
    """
    node = VarNode(method_sig, var)
    if hasattr(points_to, "pts_node"):  # the metering facade
        sites = points_to.pts_node(node)
        if not sites and points_to.demand_driven:
            sound = points_to.andersen.pts(node)
            if sound:
                points_to._bump("budget_exhaustions")
                points_to._bump("andersen_fallbacks")
            return sound
        return sites
    # Raw solvers: demand-driven first, whole-program on exhaustion.
    try:
        return points_to.points_to_refined(node)
    except BudgetExhausted:
        return points_to.fallback().pts(node)


def started_thread_sites(program, callgraph, points_to):
    """Allocation sites of thread objects on which ``start`` is called.

    ``points_to`` resolves the receiver of every reachable ``start``
    call; receiver sites whose class is a ``Thread`` subclass are
    returned.
    """
    sites = set()
    thread_classes = set(program.subclasses(THREAD_CLASS))
    if not thread_classes:
        return sites
    for method in callgraph.reachable_methods():
        for stmt in method.simple:
            if not isinstance(stmt, InvokeStmt):
                continue
            if stmt.is_static or stmt.method_name != "start":
                continue
            for site_label in _receiver_sites(
                points_to, method.sig, stmt.base
            ):
                site = program.site(site_label)
                if (
                    not site.type.is_array
                    and site.type.class_name in thread_classes
                ):
                    sites.add(site_label)
    return sites
