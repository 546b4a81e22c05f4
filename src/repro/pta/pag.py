"""Pointer-assignment graph (PAG), as the integer tables the kernel solves.

The PAG is the flow-graph encoding of program semantics used by both the
whole-program Andersen solver and the demand-driven CFL-reachability solver
(Section 4: "program semantics is encoded as a flow graph in which nodes
represent variables and edges represent propagation of object references").

Node kinds:

* variable nodes — one per (method signature, variable name);
* allocation nodes — one per allocation site;
* return nodes — one synthetic variable per method collecting returns.

Edge kinds:

* ``new``      o -> x            (x = new C)
* ``assign``   y -> x            (x = y), optionally labelled with a call
  site and a direction (``enter`` for arg->param / this-binding, ``exit``
  for return propagation) — these labels are the parentheses of the
  CFL-reachability formulation;
* ``store``    y -> (x, f)       (x.f = y)
* ``load``     (x, f) -> y       (y = x.f)

Interprocedural edges are created from a call graph, so PAG precision
follows call-graph precision.

The graph is built directly as dense integer tables: one walk over each
method body collects every edge's endpoint keys ``(method_sig, name)``,
and one interning pass numbers them.  Ids follow the order of the edge
roles — ``new`` targets first, then ``assign``, ``store`` and ``load``
endpoints, each in statement order, with call edges after every
method's own assigns — so they are deterministic for a given program.
:class:`VarNode` is the query-side name of a variable node.
"""

from itertools import chain, count

from repro.ir.stmts import (
    CopyStmt,
    InvokeStmt,
    LoadStmt,
    NewStmt,
    ReturnStmt,
    StoreStmt,
    THIS_VAR,
)

#: Synthetic variable name holding a method's return value.
RETURN_VAR = "@return"

ENTER = "enter"
EXIT = "exit"

#: Assign-edge direction codes (CFL call parentheses).
DIR_NONE, DIR_ENTER, DIR_EXIT = 0, 1, 2


class VarNode:
    """A local variable (or parameter, or synthetic return) of a method."""

    __slots__ = ("method_sig", "name")

    def __init__(self, method_sig, name):
        self.method_sig = method_sig
        self.name = name

    def key(self):
        return (self.method_sig, self.name)

    def __eq__(self, other):
        return isinstance(other, VarNode) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "%s::%s" % (self.method_sig, self.name)


class PAG:
    """The pointer-assignment graph of a program, as integer tables.

    * ``var_table[vid] == (method_sig, name)`` and ``var_index`` its
      inverse — variable nodes;
    * ``site_table[oid] == label`` — allocation sites (bitset bit ids),
      numbered in ``new``-target order;
    * ``field_table[fid]`` / ``callsite_table[cid]`` — labels, fields
      of loads before those of stores, call sites in edge order;
    * ``new_mask[vid]`` — the bitset of sites ``vid`` is assigned by
      ``new``;
    * ``copy_src[i] -> copy_dst[i]`` — every assign edge (Andersen is
      context-insensitive, so call parentheses do not matter there);
    * ``assigns_into[dst] == [(src, cid, dir), ...]`` — the labelled
      reverse adjacency the CFL traversal walks (``cid == -1`` and
      ``dir == DIR_NONE`` for an intraprocedural copy);
    * ``load_base/load_field/load_target`` and
      ``store_base/store_field/store_source`` — complex constraints,
      with ``loads_into``, ``loads_by_field`` and ``stores_by_field``
      as index lists.
    """

    __slots__ = (
        "program",
        "callgraph",
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

    def __init__(self, program, callgraph):
        self.program = program
        self.callgraph = callgraph
        self._build()

    def _build(self):
        # One walk per method body: each role's endpoint keys in
        # statement order, pairs flattened (src, dst, src, dst, ...).
        new_keys, new_sites = [], []
        assign_keys = []
        store_keys, store_fields = [], []
        load_keys, load_fields = [], []
        invokes = []
        for method in self.program.all_methods():
            sig = method.sig
            for stmt in method.statements():
                kind = type(stmt)
                if kind is CopyStmt:
                    assign_keys += ((sig, stmt.source), (sig, stmt.target))
                elif kind is InvokeStmt:
                    invokes.append((sig, stmt))
                elif kind is ReturnStmt:
                    if stmt.value:
                        assign_keys += ((sig, stmt.value), (sig, RETURN_VAR))
                elif kind is LoadStmt:
                    load_keys += ((sig, stmt.target), (sig, stmt.base))
                    load_fields.append(stmt.field)
                elif kind is NewStmt:
                    new_keys.append((sig, stmt.target))
                    new_sites.append(stmt.site)
                elif kind is StoreStmt:
                    store_keys += ((sig, stmt.source), (sig, stmt.base))
                    store_fields.append(stmt.field)
        call_keys, call_sites = self._link_calls(invokes)

        var_table = list(
            dict.fromkeys(
                chain(new_keys, assign_keys, call_keys, store_keys, load_keys)
            )
        )
        var_index = dict(zip(var_table, count()))
        vid = var_index.__getitem__
        nv = len(var_table)
        self.var_table = var_table
        self.var_index = var_index

        # Sites in new-edge order: grouped by target node, the node
        # first assigned by ``new`` first.
        new_ids = list(map(vid, new_keys))
        order = sorted(range(len(new_ids)), key=new_ids.__getitem__)
        self.site_table = list(dict.fromkeys(new_sites[i] for i in order))
        self.site_index = site_index = dict(zip(self.site_table, count()))
        new_mask = [0] * nv
        for i in order:
            new_mask[new_ids[i]] |= 1 << site_index[new_sites[i]]
        self.new_mask = new_mask

        local = list(map(vid, assign_keys))
        calls = list(map(vid, call_keys))
        self.copy_src = local[0::2] + calls[0::2]
        self.copy_dst = local[1::2] + calls[1::2]
        self.callsite_table = list(
            dict.fromkeys(site for site, _ in call_sites if site is not None)
        )
        self.callsite_index = cids = dict(zip(self.callsite_table, count()))
        assigns_into = [[] for _ in range(nv)]
        for src, dst in zip(local[0::2], local[1::2]):
            assigns_into[dst].append((src, -1, DIR_NONE))
        for src, dst, (site, code) in zip(
            calls[0::2], calls[1::2], call_sites
        ):
            if site is None:
                assigns_into[dst].append((src, -1, DIR_NONE))
            else:
                assigns_into[dst].append((src, cids[site], code))
        self.assigns_into = assigns_into

        self.field_table = list(
            dict.fromkeys(chain(load_fields, store_fields))
        )
        self.field_index = fids = dict(zip(self.field_table, count()))

        ends = list(map(vid, load_keys))
        self.load_target = ends[0::2]
        self.load_base = ends[1::2]
        self.load_field = list(map(fids.__getitem__, load_fields))
        loads_into = [[] for _ in range(nv)]
        loads_by_field = {}
        for i, target in enumerate(self.load_target):
            loads_into[target].append(i)
        for i, fid in enumerate(self.load_field):
            loads_by_field.setdefault(fid, []).append(i)
        self.loads_into = loads_into
        self.loads_by_field = loads_by_field

        ends = list(map(vid, store_keys))
        self.store_source = ends[0::2]
        self.store_base = ends[1::2]
        self.store_field = list(map(fids.__getitem__, store_fields))
        stores_by_field = {}
        for i, fid in enumerate(self.store_field):
            stores_by_field.setdefault(fid, []).append(i)
        self.stores_by_field = stores_by_field

    def _link_calls(self, invokes):
        """Endpoint keys of the call edges of ``invokes`` (caller sig,
        statement), and each edge's ``(callsite, direction)``."""
        keys = []
        labels = []
        targets_of_site = self.callgraph.targets_of_site
        for sig, invoke in invokes:
            site = invoke.callsite
            base = invoke.base
            target = invoke.target
            for callee in targets_of_site(invoke):
                callee_sig = callee.sig
                if base is not None and not callee.is_static:
                    keys += ((sig, base), (callee_sig, THIS_VAR))
                    labels.append((site, DIR_ENTER))
                for arg, param in zip(invoke.args, callee.params):
                    keys += ((sig, arg), (callee_sig, param))
                    labels.append((site, DIR_ENTER))
                if target:
                    keys += ((callee_sig, RETURN_VAR), (sig, target))
                    labels.append((site, DIR_EXIT))
        return keys, labels

    def __repr__(self):
        return "PAG(%d vars, %d assigns, %d stores, %d loads)" % (
            len(self.var_table),
            len(self.copy_src),
            len(self.store_base),
            len(self.load_base),
        )
