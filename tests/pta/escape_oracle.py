"""Method-escape analysis over the PAG: a test oracle for the summaries.

The classic escape analysis finds objects whose lifetime is bounded by
the allocating method's stack frame:

* an allocation site is **method-escaping** when a reference to one of
  its objects can leave the allocating method's frame — by being stored
  into the heap, returned, or passed to a callee (which might store it);
* sites that never escape are stack-allocatable and can never appear in
  any flows-out relation.

The analysis is a forward closure over PAG assign edges starting from
each ``new``'s target variable, marking escape when the closure touches a
store source, a return variable, or a call argument/receiver.  It is
conservative (field-insensitive on the escape side, and blind to what a
callee does with its arguments).  The detector does not use it: its
escape knowledge is the summaries' CAPTURED class
(:meth:`repro.core.summaries.ProgramSummaries.captured_sites`), an
interprocedural escape domain.  The tests check that every site this
closure proves captured is captured by the summaries too.
"""

from repro.ir.stmts import NewStmt
from repro.pta.pag import RETURN_VAR, VarNode


class EscapeResult:
    """Per-site escape classification."""

    def __init__(self, escaping, captured):
        #: site labels that may outlive their allocating frame
        self.escaping = frozenset(escaping)
        #: site labels proven local to their allocating method
        self.captured = frozenset(captured)

    def escapes(self, site_label):
        return site_label in self.escaping

    def __repr__(self):
        return "EscapeResult(%d escaping, %d captured)" % (
            len(self.escaping),
            len(self.captured),
        )


def analyze_escape(program, pag):
    """Classify every allocation site of ``program`` against ``pag``."""
    # Pre-index the nodes whose *reaching* marks an escape.
    store_sources = {edge.source for edge in pag.store_edges}
    # Call arguments and receivers are the sources of labelled enter-edges;
    # return propagation happens via the synthetic RETURN_VAR.
    call_inputs = {
        edge.src
        for edge in pag.assign_edges
        if edge.direction is not None
    }

    escaping = set()
    captured = set()
    for method in program.all_methods():
        for stmt in method.statements():
            if not isinstance(stmt, NewStmt):
                continue
            root = VarNode(method.sig, stmt.target)
            if _escapes_from(pag, root, store_sources, call_inputs):
                escaping.add(stmt.site)
            else:
                captured.add(stmt.site)
    return EscapeResult(escaping, captured)


def _escapes_from(pag, root, store_sources, call_inputs):
    seen = {root}
    work = [root]
    while work:
        node = work.pop()
        if node in store_sources or node in call_inputs:
            return True
        if node.name == RETURN_VAR:
            return True
        for edge in pag.assigns_from.get(node, ()):
            if edge.dst not in seen:
                seen.add(edge.dst)
                work.append(edge.dst)
    return False
