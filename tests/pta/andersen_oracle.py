"""Dict-of-sets Andersen solver: the differential oracle of the flat kernel.

A standard inclusion-based, flow-insensitive, field-sensitive worklist
solver over the object PAG of :mod:`tests.pta.pag_oracle`, simple
enough to audit by eye.  The production solver is
:func:`repro.pta.kernel.solve_flat`; the differential and identity tests
check that it answers exactly what this one does.

Results:

* ``pts(var_node)``               -> set of allocation-site labels
* ``field_pts(site_label, field)`` -> set of allocation-site labels
"""

from repro.pta.pag import VarNode

from tests.pta import pag_oracle


class AndersenResult:
    """Solved points-to sets with convenience queries."""

    def __init__(self, pag, var_pts, field_pts):
        self.pag = pag
        self._var_pts = var_pts
        self._field_pts = field_pts

    def pts(self, node):
        """Points-to set (allocation-site labels) of a variable node."""
        return self._var_pts.get(node, frozenset())

    def pts_of(self, method_sig, var):
        return self.pts(VarNode(method_sig, var))

    def field_pts(self, site_label, field):
        """Objects that field ``field`` of objects from ``site_label`` may
        point to."""
        return self._field_pts.get((site_label, field), frozenset())

    def may_alias(self, node_a, node_b):
        """True when two variable nodes may point to a common object."""
        return bool(self.pts(node_a) & self.pts(node_b))

    def heap_points_to_pairs(self):
        """All ``(base_site, field, target_site)`` heap edges."""
        for (base, field), targets in self._field_pts.items():
            for target in targets:
                yield base, field, target

    def __repr__(self):
        return "AndersenResult(%d vars, %d heap slots)" % (
            len(self._var_pts),
            len(self._field_pts),
        )


def solve(pag):
    """Solve the program of ``pag`` (a :class:`repro.pta.pag.PAG`) on its
    own object graph: a drop-in for :func:`repro.pta.kernel.solve_flat`."""
    return solve_graph(pag_oracle.PAG(pag.program, pag.callgraph))


def solve_graph(pag):
    """Run the inclusion-based solver on an object PAG to a fixed point."""
    var_pts = {}
    field_pts = {}
    #: deferred complex constraints per variable: loads where it is the
    #: base, stores where it is the base.
    loads_on = {}
    stores_on = {}
    stores_from = {}
    for edge in pag.load_edges:
        loads_on.setdefault(edge.base, []).append(edge)
    for edge in pag.store_edges:
        stores_on.setdefault(edge.base, []).append(edge)
        stores_from.setdefault(edge.source, []).append(edge)

    worklist = []
    _EMPTY = frozenset()

    def add_to_var(node, sites):
        cur = var_pts.setdefault(node, set())
        new = sites - cur
        if new:
            cur |= new
            worklist.append((node, new))

    def add_to_field(base_site, field, sites):
        cur = field_pts.setdefault((base_site, field), set())
        new = sites - cur
        if new:
            cur |= new
            # Propagate to every load of this heap slot.
            for edge in pag.loads_by_field.get(field, ()):
                if base_site in var_pts.get(edge.base, ()):
                    add_to_var(edge.target, new)

    for node, sites in pag.new_edges.items():
        add_to_var(node, set(sites))

    while worklist:
        node, delta = worklist.pop()
        for edge in pag.assigns_from.get(node, ()):
            add_to_var(edge.dst, delta)
        for edge in stores_on.get(node, ()):
            # node is the base of base.field = source: new base objects
            # receive everything the source points to.  The callee only
            # ever *subtracts* from the passed set (producing a fresh
            # delta) before any recursive mutation, and growth is
            # monotone, so the live set is safe to pass — no per-delta
            # copy.
            src_sites = var_pts.get(edge.source, _EMPTY)
            for base_site in delta:
                add_to_field(base_site, edge.field, src_sites)
        for edge in loads_on.get(node, ()):
            # node is the base of target = base.field.
            for base_site in delta:
                add_to_var(
                    edge.target,
                    field_pts.get((base_site, edge.field), _EMPTY),
                )
        # node may be the *source* of stores: push into fields of all
        # current base objects.
        for store in stores_from.get(node, ()):
            # copy: propagation below may grow this very set
            for base_site in list(var_pts.get(store.base, ())):
                add_to_field(base_site, store.field, delta)

    frozen_vars = {n: frozenset(s) for n, s in var_pts.items()}
    frozen_fields = {k: frozenset(s) for k, s in field_pts.items()}
    return AndersenResult(pag, frozen_vars, frozen_fields)


def analyze(program, callgraph):
    """Build the object PAG for ``program`` under ``callgraph`` and solve
    it."""
    return solve_graph(pag_oracle.PAG(program, callgraph))
