"""Rapid type analysis call-graph construction.

RTA refines CHA by only dispatching virtual calls to methods of classes
that are instantiated somewhere in code already found reachable.  It runs
as a fixed point: discovering a new reachable method can discover new
instantiated classes, which can resolve more call sites.

Two indexes keyed by method name make each edge cost amortised constant
time:

* the virtual invokes reached so far, in arrival order;
* the targets that instantiated classes dispatch the name to, each keyed
  to the least class name that reaches it.

A class instantiated for the first time walks its ``extends`` chain once.
Every (name, target) pair it adds is new to every pending invoke of that
name.  A virtual invoke reached for the first time takes its name's known
targets.  Edges come out in the order of the plain fixed point, which
re-dispatches every pending invoke against the sorted instantiated
classes on each instantiation: an instantiation adds one edge per
pending invoke, in arrival order, and a new invoke takes its targets
ordered by the least class name that reaches them.
"""

import heapq
import itertools

from repro.callgraph.cha import CallEdge, CallGraph
from repro.ir.stmts import InvokeStmt, NewStmt


def _dispatch_table(program, class_name):
    """``{method name: method}`` that a receiver of class ``class_name``
    dispatches to, from one iterative walk up its ``extends`` chain."""
    table = {}
    cur = class_name
    while cur is not None:
        decl = program.cls(cur)
        for name, method in decl.methods.items():
            table.setdefault(name, method)
        cur = decl.superclass
    return table


def build_rta(program, entries=None):
    """Build an RTA call graph from ``entries`` (default: program entry)."""
    entry_sigs = entries or [program.entry_method().sig]
    graph = CallGraph(program, entry_sigs)

    instantiated = set()
    reachable = {}
    work = []
    arrival = itertools.count()
    #: method name -> [(arrival, caller, invoke)] of reached virtual invokes
    pending = {}
    #: method name -> {target method: least instantiated class reaching it}
    targets = {}

    def reach(method):
        if method.sig in reachable:
            return
        reachable[method.sig] = method
        work.append(method)

    def add_edge(caller, invoke, callee):
        graph.add_edge(CallEdge(caller, invoke, callee))
        reach(callee)

    def instantiate(class_name):
        fresh = {}
        for name, target in _dispatch_table(program, class_name).items():
            known = targets.setdefault(name, {})
            least = known.get(target)
            if least is None:
                known[target] = class_name
                fresh[name] = target
            elif class_name < least:
                known[target] = class_name
        # Each fresh pair is one new edge for every pending invoke of its
        # name; the merge restores their joint arrival order.
        streams = [pending[name] for name in fresh if name in pending]
        for _, caller, invoke in heapq.merge(*streams):
            add_edge(caller, invoke, fresh[invoke.method_name])

    for sig in entry_sigs:
        reach(program.method(sig))

    while work:
        method = work.pop()
        for stmt in method.simple:
            if isinstance(stmt, NewStmt):
                name = stmt.type.class_name
                if not stmt.type.is_array and name not in instantiated:
                    instantiated.add(name)
                    instantiate(name)
            elif isinstance(stmt, InvokeStmt):
                if stmt.is_static:
                    callee = program.method(
                        "%s.%s" % (stmt.static_class, stmt.method_name)
                    )
                    add_edge(method, stmt, callee)
                else:
                    name = stmt.method_name
                    pending.setdefault(name, []).append(
                        (next(arrival), method, stmt)
                    )
                    known = targets.get(name, {})
                    for target in sorted(known, key=known.__getitem__):
                        add_edge(method, stmt, target)
    return graph
