"""Object PAG builder and its interning: the oracle of the integer PAG.

The pointer-assignment graph used to be built as Python objects — one
:class:`~repro.pta.pag.VarNode` per edge endpoint, edge objects with
per-node index dicts — and interned a second time into dense integer
tables (``FlatPAG``) for the kernel.  :class:`repro.pta.pag.PAG` now
fills those tables in one walk of the IR.  This module keeps the two
old steps as they were: ``test_pag_oracle.py`` checks that
``FlatPAG(PAG(program, callgraph))`` equals the integer PAG table by
table, in order, and the dict-of-sets solver
(:mod:`tests.pta.andersen_oracle`) solves over this object graph.
"""

from repro.ir.stmts import (
    CopyStmt,
    InvokeStmt,
    LoadStmt,
    NewStmt,
    ReturnStmt,
    StoreStmt,
    THIS_VAR,
)
from repro.pta.pag import (
    DIR_ENTER,
    DIR_EXIT,
    DIR_NONE,
    ENTER,
    EXIT,
    RETURN_VAR,
    VarNode,
)


class AssignEdge:
    """``src -> dst`` copy edge, possibly labelled as a call parenthesis."""

    __slots__ = ("src", "dst", "callsite", "direction")

    def __init__(self, src, dst, callsite=None, direction=None):
        self.src = src
        self.dst = dst
        self.callsite = callsite
        self.direction = direction

    def __repr__(self):
        label = ""
        if self.callsite:
            label = " [%s %s]" % (self.direction, self.callsite)
        return "%r -> %r%s" % (self.src, self.dst, label)


class StoreEdge:
    """``source -> base.field`` for statement ``base.field = source``."""

    __slots__ = ("source", "base", "field", "stmt")

    def __init__(self, source, base, field, stmt):
        self.source = source
        self.base = base
        self.field = field
        self.stmt = stmt

    def __repr__(self):
        return "%r -> %r.%s" % (self.source, self.base, self.field)


class LoadEdge:
    """``base.field -> target`` for statement ``target = base.field``."""

    __slots__ = ("target", "base", "field", "stmt")

    def __init__(self, target, base, field, stmt):
        self.target = target
        self.base = base
        self.field = field
        self.stmt = stmt

    def __repr__(self):
        return "%r.%s -> %r" % (self.base, self.field, self.target)


class PAG:
    """The pointer-assignment graph of a program, as Python objects."""

    def __init__(self, program, callgraph):
        self.program = program
        self.callgraph = callgraph
        #: var node -> list of allocation-site labels assigned by ``new``
        self.new_edges = {}
        #: list of AssignEdge, plus per-node indexes
        self.assign_edges = []
        self.assigns_into = {}  # dst -> [AssignEdge]
        self.assigns_from = {}  # src -> [AssignEdge]
        self.store_edges = []
        self.load_edges = []
        self.stores_by_field = {}
        self.loads_by_field = {}
        self.loads_into = {}  # target var -> [LoadEdge]
        self._build()

    # -- construction ------------------------------------------------------

    def var(self, method, name):
        return VarNode(method.sig, name)

    def _add_assign(self, src, dst, callsite=None, direction=None):
        edge = AssignEdge(src, dst, callsite, direction)
        self.assign_edges.append(edge)
        self.assigns_into.setdefault(dst, []).append(edge)
        self.assigns_from.setdefault(src, []).append(edge)

    def _build(self):
        for method in self.program.all_methods():
            self._build_method(method)
        self._build_calls()

    def _build_method(self, method):
        for stmt in method.statements():
            if isinstance(stmt, NewStmt):
                node = self.var(method, stmt.target)
                self.new_edges.setdefault(node, []).append(stmt.site)
            elif isinstance(stmt, CopyStmt):
                self._add_assign(
                    self.var(method, stmt.source), self.var(method, stmt.target)
                )
            elif isinstance(stmt, StoreStmt):
                edge = StoreEdge(
                    self.var(method, stmt.source),
                    self.var(method, stmt.base),
                    stmt.field,
                    stmt,
                )
                self.store_edges.append(edge)
                self.stores_by_field.setdefault(stmt.field, []).append(edge)
            elif isinstance(stmt, LoadStmt):
                edge = LoadEdge(
                    self.var(method, stmt.target),
                    self.var(method, stmt.base),
                    stmt.field,
                    stmt,
                )
                self.load_edges.append(edge)
                self.loads_by_field.setdefault(stmt.field, []).append(edge)
                self.loads_into.setdefault(edge.target, []).append(edge)
            elif isinstance(stmt, ReturnStmt) and stmt.value:
                self._add_assign(
                    self.var(method, stmt.value), VarNode(method.sig, RETURN_VAR)
                )

    def _build_calls(self):
        for method in self.program.all_methods():
            for stmt in method.statements():
                if not isinstance(stmt, InvokeStmt):
                    continue
                for callee in self.callgraph.targets_of_site(stmt):
                    self._link_call(method, stmt, callee)

    def _link_call(self, caller, invoke, callee):
        site = invoke.callsite
        if invoke.base is not None and not callee.is_static:
            self._add_assign(
                self.var(caller, invoke.base),
                VarNode(callee.sig, THIS_VAR),
                callsite=site,
                direction=ENTER,
            )
        for arg, param in zip(invoke.args, callee.params):
            self._add_assign(
                self.var(caller, arg),
                VarNode(callee.sig, param),
                callsite=site,
                direction=ENTER,
            )
        if invoke.target:
            self._add_assign(
                VarNode(callee.sig, RETURN_VAR),
                self.var(caller, invoke.target),
                callsite=site,
                direction=EXIT,
            )

    # -- queries -----------------------------------------------------------

    def all_var_nodes(self):
        nodes = set(self.new_edges)
        for edge in self.assign_edges:
            nodes.add(edge.src)
            nodes.add(edge.dst)
        for edge in self.store_edges:
            nodes.add(edge.source)
            nodes.add(edge.base)
        for edge in self.load_edges:
            nodes.add(edge.target)
            nodes.add(edge.base)
        return nodes

    def __repr__(self):
        return "PAG(%d assigns, %d stores, %d loads)" % (
            len(self.assign_edges),
            len(self.store_edges),
            len(self.load_edges),
        )


# -- interning ---------------------------------------------------------------


class FlatPAG:
    """Dense-integer view of an object :class:`PAG`.

    Node/edge identities become array indexes:

    * ``var_table[vid] == (method_sig, name)`` — variable nodes;
    * ``site_table[oid] == label`` — allocation sites (bitset bit ids);
    * ``field_table[fid]`` / ``callsite_table[cid]`` — labels;
    * ``copy_src[i] -> copy_dst[i]`` — every assign edge (Andersen is
      context-insensitive, so call parentheses do not matter here);
    * ``assigns_into[dst] == [(src, cid, dir), ...]`` — the labelled
      reverse-adjacency the CFL traversal walks;
    * ``load_base/load_field/load_target`` and
      ``store_base/store_field/store_source`` — complex constraints,
      with ``loads_into``/``stores_by_field`` as per-node index lists.

    Interning order follows PAG construction order, so ids are
    deterministic for a given program.
    """

    __slots__ = (
        "var_index",
        "var_table",
        "site_index",
        "site_table",
        "field_index",
        "field_table",
        "callsite_index",
        "callsite_table",
        "new_mask",
        "copy_src",
        "copy_dst",
        "assigns_into",
        "load_base",
        "load_field",
        "load_target",
        "store_base",
        "store_field",
        "store_source",
        "loads_into",
        "loads_by_field",
        "stores_by_field",
    )

    def __init__(self, pag):
        self.var_index = {}
        self.var_table = []
        self.site_index = {}
        self.site_table = []
        self.field_index = {}
        self.field_table = []
        self.callsite_index = {}
        self.callsite_table = []
        self._build(pag)

    def _vid(self, node):
        key = (node.method_sig, node.name)
        vid = self.var_index.get(key)
        if vid is None:
            vid = self.var_index[key] = len(self.var_table)
            self.var_table.append(key)
        return vid

    def _intern(self, index, table, value):
        i = index.get(value)
        if i is None:
            i = index[value] = len(table)
            table.append(value)
        return i

    def _build(self, pag):
        vid = self._vid
        # First pass: intern every node so the per-node lists can be
        # allocated once at their final size.
        for node in pag.new_edges:
            vid(node)
        for edge in pag.assign_edges:
            vid(edge.src)
            vid(edge.dst)
        for edge in pag.store_edges:
            vid(edge.source)
            vid(edge.base)
        for edge in pag.load_edges:
            vid(edge.target)
            vid(edge.base)
        nv = len(self.var_table)

        self.new_mask = [0] * nv
        for node, sites in pag.new_edges.items():
            mask = 0
            for site in sites:
                mask |= 1 << self._intern(
                    self.site_index, self.site_table, site
                )
            self.new_mask[vid(node)] |= mask

        self.copy_src = []
        self.copy_dst = []
        self.assigns_into = [[] for _ in range(nv)]
        for edge in pag.assign_edges:
            src, dst = vid(edge.src), vid(edge.dst)
            self.copy_src.append(src)
            self.copy_dst.append(dst)
            if edge.callsite is None:
                cid, code = -1, DIR_NONE
            else:
                cid = self._intern(
                    self.callsite_index, self.callsite_table, edge.callsite
                )
                code = DIR_ENTER if edge.direction == ENTER else DIR_EXIT
            self.assigns_into[dst].append((src, cid, code))

        self.load_base = []
        self.load_field = []
        self.load_target = []
        self.loads_into = [[] for _ in range(nv)]
        self.loads_by_field = {}
        for edge in pag.load_edges:
            i = len(self.load_base)
            fid = self._intern(self.field_index, self.field_table, edge.field)
            self.load_base.append(vid(edge.base))
            self.load_field.append(fid)
            target = vid(edge.target)
            self.load_target.append(target)
            self.loads_into[target].append(i)
            self.loads_by_field.setdefault(fid, []).append(i)

        self.store_base = []
        self.store_field = []
        self.store_source = []
        self.stores_by_field = {}
        for edge in pag.store_edges:
            i = len(self.store_base)
            fid = self._intern(self.field_index, self.field_table, edge.field)
            self.store_base.append(vid(edge.base))
            self.store_field.append(fid)
            self.store_source.append(vid(edge.source))
            self.stores_by_field.setdefault(fid, []).append(i)
