"""Re-dispatching RTA builder: the differential oracle of the indexed one.

RTA refines CHA by only dispatching virtual calls to methods of classes
that are instantiated somewhere in code already found reachable.  It runs
as a fixed point: discovering a new reachable method can discover new
instantiated classes, which can resolve more call sites.

This builder states that fixed point directly: every time a class is
first instantiated it re-dispatches every pending virtual invoke against
a freshly sorted copy of every instantiated class, which costs cubic
time on large programs.  The production builder is
:func:`repro.callgraph.rta.build_rta`; ``test_rta_oracle.py`` checks that
it adds exactly the edges this one does, in the same order.
"""

from repro.callgraph.cha import CallEdge, CallGraph
from repro.ir.stmts import InvokeStmt, NewStmt


def build_rta(program, entries=None):
    """Build an RTA call graph from ``entries`` (default: program entry)."""
    entry_sigs = entries or [program.entry_method().sig]
    graph = CallGraph(program, entry_sigs)

    instantiated = set()
    reachable = {}
    #: virtual invokes waiting for a class that defines/inherits the method
    pending = []
    work = []

    def reach(method):
        if method.sig in reachable:
            return
        reachable[method.sig] = method
        work.append(method)

    def inherited_lookup(class_name, method_name):
        cur = class_name
        while cur is not None:
            decl = program.cls(cur)
            if method_name in decl.methods:
                return decl.methods[method_name]
            cur = decl.superclass
        return None

    def resolve_virtual(caller, invoke):
        """Dispatch ``invoke`` against the currently instantiated classes."""
        added = False
        for class_name in sorted(instantiated):
            target = inherited_lookup(class_name, invoke.method_name)
            if target is None:
                continue
            key = (invoke.uid, target.sig)
            if key in resolved_pairs:
                continue
            resolved_pairs.add(key)
            graph.add_edge(CallEdge(caller, invoke, target))
            reach(target)
            added = True
        return added

    resolved_pairs = set()
    for sig in entry_sigs:
        reach(program.method(sig))

    while work:
        method = work.pop()
        for stmt in method.statements():
            if isinstance(stmt, NewStmt):
                name = stmt.type.class_name
                if not stmt.type.is_array and name not in instantiated:
                    instantiated.add(name)
                    # New class may resolve earlier pending virtual calls.
                    for caller, invoke in list(pending):
                        resolve_virtual(caller, invoke)
            elif isinstance(stmt, InvokeStmt):
                if stmt.is_static:
                    callee = program.method(
                        "%s.%s" % (stmt.static_class, stmt.method_name)
                    )
                    key = (stmt.uid, callee.sig)
                    if key not in resolved_pairs:
                        resolved_pairs.add(key)
                        graph.add_edge(CallEdge(method, stmt, callee))
                        reach(callee)
                else:
                    pending.append((method, stmt))
                    resolve_virtual(method, stmt)
    return graph
