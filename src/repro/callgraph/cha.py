"""Call-graph construction.

Two builders are provided:

* :func:`build_cha` — class-hierarchy analysis: a virtual call may reach any
  same-named method in the program (variables are untyped here, so the
  receiver's declared type gives no pruning).
* :func:`build_rta` (in :mod:`repro.callgraph.rta`) — rapid type analysis:
  only classes actually instantiated in reachable code dispatch.

The call graph underlies reachable-method counting (Table 1's ``Mtds``
column) and the interprocedural leak detector's context enumeration.
"""

from repro.callgraph.hierarchy import ClassHierarchy
from repro.ir.stmts import InvokeStmt


class CallEdge:
    """One labelled call-graph edge: call site in ``caller`` to ``callee``."""

    __slots__ = ("caller", "invoke", "callee")

    def __init__(self, caller, invoke, callee):
        self.caller = caller
        self.invoke = invoke
        self.callee = callee

    def __repr__(self):
        return "CallEdge(%s -[%s]-> %s)" % (
            self.caller.sig,
            self.invoke.callsite,
            self.callee.sig,
        )


class CallGraph:
    """A call graph: edges indexed by caller signature and by call site."""

    def __init__(self, program, entry_sigs):
        self.program = program
        self.entry_sigs = list(entry_sigs)
        self.edges = []
        self._out = {}
        self._sites = {}
        self._reachable = None

    def add_edge(self, edge):
        self.edges.append(edge)
        self._out.setdefault(edge.caller.sig, []).append(edge)
        self._sites.setdefault(edge.invoke.uid, []).append(edge)
        self._reachable = None

    def callees_of(self, method):
        return [e.callee for e in self._out.get(method.sig, ())]

    def edges_of(self, method):
        return list(self._out.get(method.sig, ()))

    def targets_of_site(self, invoke):
        """Possible callees of a specific invoke statement."""
        return [e.callee for e in self._sites.get(invoke.uid, ())]

    def reachable_methods(self):
        """Methods reachable from the entry points (memoized)."""
        if self._reachable is None:
            seen = {}
            work = []
            for sig in self.entry_sigs:
                method = self.program.method(sig)
                seen[method.sig] = method
                work.append(method)
            while work:
                method = work.pop()
                for callee in self.callees_of(method):
                    if callee.sig not in seen:
                        seen[callee.sig] = callee
                        work.append(callee)
            self._reachable = seen
        return list(self._reachable.values())

    def __repr__(self):
        return "CallGraph(%d edges, %d reachable)" % (
            len(self.edges),
            len(self.reachable_methods()),
        )


def _resolve_targets(program, hierarchy, invoke):
    if invoke.is_static:
        return [program.method("%s.%s" % (invoke.static_class, invoke.method_name))]
    return hierarchy.all_targets(invoke.method_name)


def build_cha(program, entries=None):
    """Build a CHA call graph starting from ``entries`` (default: the
    program entry point)."""
    entry_sigs = entries or [program.entry_method().sig]
    hierarchy = ClassHierarchy(program)
    graph = CallGraph(program, entry_sigs)
    # CHA edges do not depend on reachability; process every method so the
    # graph is usable from any root, then let reachable_methods() prune.
    for method in program.all_methods():
        for stmt in method.statements():
            if isinstance(stmt, InvokeStmt):
                for callee in _resolve_targets(program, hierarchy, stmt):
                    graph.add_edge(CallEdge(method, stmt, callee))
    return graph
