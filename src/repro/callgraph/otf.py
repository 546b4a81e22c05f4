"""On-the-fly call-graph construction driven by points-to results.

CHA dispatches a virtual call to every same-named method; RTA prunes to
instantiated classes.  The on-the-fly builder goes one step further, the
way Soot's Spark (the paper's underlying framework) does: resolve each
virtual call site against the *points-to set of its receiver*, and
iterate — points-to results refine the call graph, which refines the PAG,
which refines points-to — until the edge set stabilizes.

This matters for leak detection precision: spurious dispatch targets
create spurious store edges, which create spurious flows-out pairs and
inflate reports.  ``tests/callgraph/test_otf.py`` demonstrates a case
where RTA merges two same-named methods and OTF keeps them apart.
"""

from repro.callgraph.cha import CallEdge, CallGraph
from repro.callgraph.rta import build_rta
from repro.ir.stmts import InvokeStmt
from repro.pta.kernel import solve_flat
from repro.pta.pag import PAG


def build_otf(program, entries=None, max_rounds=10):
    """Build a points-to-refined call graph.

    Starts from RTA, then alternates Andersen solving and call-site
    re-resolution until no edge changes (or ``max_rounds`` is hit, in
    which case the last sound graph is returned — each round only ever
    *shrinks* the RTA edge set, so every intermediate graph is safe).
    """
    entry_sigs = entries or [program.entry_method().sig]
    graph = build_rta(program, entries=entry_sigs)

    for _round in range(max_rounds):
        result = solve_flat(PAG(program, graph))
        refined = CallGraph(program, entry_sigs)
        changed = False
        for method in graph.reachable_methods():
            for stmt in method.statements():
                if not isinstance(stmt, InvokeStmt):
                    continue
                old_targets = {m.sig for m in graph.targets_of_site(stmt)}
                if stmt.is_static:
                    new_targets = old_targets
                else:
                    receiver_sites = result.pts(_var(method, stmt.base))
                    resolved = set()
                    for site_label in receiver_sites:
                        site = program.site(site_label)
                        if site.type.is_array:
                            continue
                        try:
                            target = program.resolve_dispatch(
                                site.type.class_name, stmt.method_name
                            )
                        except Exception:
                            continue
                        resolved.add(target.sig)
                    # Only prune: an empty points-to set (dead call under
                    # this schedule of rounds) keeps the old targets, so
                    # the result never drops below reachability soundness.
                    new_targets = (resolved & old_targets) or old_targets
                if new_targets != old_targets:
                    changed = True
                for sig in sorted(new_targets):
                    refined.add_edge(CallEdge(method, stmt, program.method(sig)))
        if not changed:
            return graph
        graph = refined
    return graph


def _var(method, name):
    from repro.pta.pag import VarNode

    return VarNode(method.sig, name)
