"""Integer-flat points-to kernel: the whole-program Andersen solver.

A standard inclusion-based, flow-insensitive, field-sensitive solve over
the PAG, and the sound baseline of this reproduction: the demand-driven
CFL solver refines its answers and falls back to it when its work
budget is exhausted.  Instead of dicts of Python sets keyed by rich
:class:`~repro.pta.pag.VarNode` objects, the solver works on integers:

* **Interning** — every variable node, allocation site, field name and
  call-site label is mapped to a dense integer id (:class:`FlatPAG`),
  and the PAG's edge lists become parallel int arrays (CSR-style: one
  flat array per edge role, plus per-node index lists);
* **Bitset points-to sets** — a points-to set is one Python big int
  whose bit ``i`` means "may point to allocation site ``i``"; union and
  intersection are single ``|``/``&`` machine-word loops instead of
  per-element hash operations;
* **Online SCC collapse** — each solver round runs an iterative Tarjan
  pass over the current copy graph (including copy edges discovered
  through loads/stores) and merges every cycle into one union-find
  representative, so copy cycles share a single points-to bitset;
* **Topologically-ordered propagation** — Tarjan emits SCCs in reverse
  topological order, so one propagation sweep per round reaches the
  fixpoint of the current edge set;
* **Flat serialization** — the solved bitsets serialize as one byte
  blob plus an offset table (:func:`snapshot_flat`), part of the
  substrate bytes that the artifact cache stores and the daemon sends
  with every fleet shard (:mod:`repro.core.cache.serialize`); masks stay
  undecoded until a query needs them, so per-worker warmup is
  milliseconds.

The result type, :class:`FlatAndersenResult`, answers ``pts``,
``field_pts``, ``may_alias`` and ``heap_points_to_pairs``.  The plain
dict-of-sets solver it replaced lives on under ``tests/`` as the
differential-test oracle.
"""

from repro.pta.pag import ENTER, PAG, VarNode

#: Assign-edge direction codes (CFL call parentheses).
DIR_NONE, DIR_ENTER, DIR_EXIT = 0, 1, 2


# -- interning ---------------------------------------------------------------


class FlatPAG:
    """Dense-integer view of a :class:`~repro.pta.pag.PAG`.

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


def flatten(pag):
    """The (memoized) :class:`FlatPAG` of ``pag``.

    Cached on the PAG instance, so the whole-program solver and the
    demand-driven CFL traversal share one interning.  Concurrent builds
    are benign: both produce identical tables (idempotent fill, the
    pattern every shared artifact in this codebase follows).
    """
    flat = getattr(pag, "_flat", None)
    if flat is None:
        flat = FlatPAG(pag)
        pag._flat = flat
    return flat


# -- mask tables -------------------------------------------------------------


class MaskTable:
    """A table of points-to bitsets, decodable lazily from a byte blob.

    Solver-built tables hold live ints; hydrated tables hold an
    ``(offsets, blob)`` pair and decode each mask on first use, which
    is what makes worker warmup near zero: hydrating never touches the
    blob, only queries do.
    """

    __slots__ = ("_ints", "_offsets", "_blob")

    def __init__(self, ints=None, offsets=None, blob=None):
        self._ints = ints
        self._offsets = offsets
        self._blob = blob

    def __len__(self):
        if self._ints is not None:
            return len(self._ints)
        return len(self._offsets) - 1

    def mask(self, i):
        if self._ints is not None:
            return self._ints[i]
        return int.from_bytes(
            self._blob[self._offsets[i] : self._offsets[i + 1]], "little"
        )

    def encode(self):
        """``(offsets, blob)`` — little-endian masks, concatenated."""
        if self._ints is None:
            return list(self._offsets), self._blob
        offsets = [0]
        parts = []
        for mask in self._ints:
            parts.append(mask.to_bytes((mask.bit_length() + 7) // 8, "little"))
            offsets.append(offsets[-1] + len(parts[-1]))
        return offsets, b"".join(parts)

    def nbytes(self):
        if self._ints is not None:
            return sum((m.bit_length() + 7) // 8 for m in self._ints)
        return len(self._blob)


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- the result view ---------------------------------------------------------


class FlatAndersenResult:
    """The flat kernel's solution behind the ``AndersenResult`` API.

    Variable and heap-slot points-to sets are indexes into a shared
    :class:`MaskTable` (one entry per union-find representative, so an
    entire copy cycle shares one mask *and* one decoded frozenset).
    Label decoding is lazy and memoized per mask.
    """

    __slots__ = (
        "pag",
        "stats",
        "_var_index",
        "_site_table",
        "_masks",
        "_var_reps",
        "_slot_reps",
        "_label_memo",
    )

    def __init__(
        self, pag, var_index, site_table, masks, var_reps, slot_reps, stats=None
    ):
        self.pag = pag
        self.stats = dict(stats or {})
        self._var_index = var_index
        self._site_table = site_table
        self._masks = masks
        self._var_reps = var_reps
        #: (site_label, field) -> mask index
        self._slot_reps = slot_reps
        self._label_memo = {}

    def _labels(self, mask_idx):
        got = self._label_memo.get(mask_idx)
        if got is None:
            table = self._site_table
            got = frozenset(
                table[bit] for bit in iter_bits(self._masks.mask(mask_idx))
            )
            self._label_memo[mask_idx] = got
        return got

    # -- AndersenResult API -------------------------------------------------

    def pts(self, node):
        """Points-to set (allocation-site labels) of a variable node."""
        vid = self._var_index.get((node.method_sig, node.name))
        if vid is None:
            return frozenset()
        return self._labels(self._var_reps[vid])

    def pts_of(self, method_sig, var):
        return self.pts(VarNode(method_sig, var))

    def field_pts(self, site_label, field):
        """Objects that field ``field`` of objects from ``site_label``
        may point to."""
        idx = self._slot_reps.get((site_label, field))
        if idx is None:
            return frozenset()
        return self._labels(idx)

    def may_alias(self, node_a, node_b):
        """True when two variable nodes may point to a common object."""
        return bool(self.pts(node_a) & self.pts(node_b))

    def heap_points_to_pairs(self):
        """All ``(base_site, field, target_site)`` heap edges."""
        for (base, field), idx in self._slot_reps.items():
            for target in self._labels(idx):
                yield base, field, target

    def __repr__(self):
        return "FlatAndersenResult(%d vars, %d heap slots, %d masks)" % (
            len(self._var_reps),
            len(self._slot_reps),
            len(self._masks),
        )


# -- the solver --------------------------------------------------------------


def solve_flat(pag):
    """Run the integer-flat inclusion solver to a fixed point.

    Node space: variable ids ``[0, nv)`` from the interner, heap-slot
    nodes ``(site, field)`` allocated on demand above ``nv``.  The
    solve is a three-phase hybrid:

    1. one Tarjan pass over the static copy graph collapses every copy
       cycle into a union-find representative and sweeps the SCC DAG
       once in topological order (reverse Tarjan completion order), so
       the bulk of propagation is a single linear pass;
    2. a difference-propagation worklist handles everything dynamic:
       complex constraints turn newly-seen base objects into copy edges
       through their heap-slot nodes, and only *deltas* travel along
       edges.  A pathological amount of re-propagation (cycles formed
       through the heap) triggers an interim re-collapse;
    3. a final collapse pass merges cycles the dynamic edges created
       (their members already converged to equal bitsets, so this only
       de-duplicates masks and counts the SCC).
    """
    flat = flatten(pag)
    nv = len(flat.var_table)

    pts = list(flat.new_mask)
    succ = [[] for _ in range(nv)]
    for src, dst in zip(flat.copy_src, flat.copy_dst):
        succ[src].append(dst)
    parent = list(range(nv))

    slot_index = {}
    slot_table = []
    n_loads = len(flat.load_base)
    n_stores = len(flat.store_base)
    load_done = [0] * n_loads
    store_done = [0] * n_stores
    #: rep node -> constraint indexes watching its points-to growth
    load_watch = {}
    store_watch = {}
    for i in range(n_loads):
        load_watch.setdefault(flat.load_base[i], []).append(i)
    for i in range(n_stores):
        store_watch.setdefault(flat.store_base[i], []).append(i)

    rounds = 0
    collapsed = 0
    pops = 0

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def slot_node(oid, fid):
        key = (oid, fid)
        sid = slot_index.get(key)
        if sid is None:
            sid = slot_index[key] = len(parent)
            slot_table.append(key)
            parent.append(sid)
            pts.append(0)
            succ.append([])
        return sid

    def tarjan_pass(sweep=True):
        """Collapse cycles among current representatives; optionally
        sweep the SCC DAG once in topological order.  Returns the number
        of nodes merged away.  The final post-fixpoint pass passes
        ``sweep=False`` — propagation is already complete, collapsing is
        purely mask sharing."""
        n = len(parent)
        par = parent
        index = [-1] * n
        low = [0] * n
        on = bytearray(n)
        stack = []
        comps = []  # SCC member lists, in reverse topological order
        counter = 0
        for start in range(n):
            if par[start] != start or index[start] >= 0:
                continue
            work = [(start, iter(succ[start]))]
            index[start] = low[start] = counter
            counter += 1
            stack.append(start)
            on[start] = 1
            while work:
                node, edges = work[-1]
                advanced = False
                for raw in edges:
                    nxt = par[raw]
                    if par[nxt] != nxt:
                        nxt = find(nxt)
                    if nxt == node:
                        continue
                    if index[nxt] < 0:
                        index[nxt] = low[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on[nxt] = 1
                        work.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                    if on[nxt] and index[nxt] < low[node]:
                        low[node] = index[nxt]
                if advanced:
                    continue
                work.pop()
                if work:
                    up = work[-1][0]
                    if low[node] < low[up]:
                        low[up] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on[member] = 0
                        comp.append(member)
                        if member == node:
                            break
                    comps.append(comp)

        merged = 0
        for comp in comps:
            if len(comp) > 1:
                rep = comp[0]
                mask = pts[rep]
                edges = succ[rep]
                for member in comp[1:]:
                    parent[member] = rep
                    mask |= pts[member]
                    pts[member] = 0
                    edges.extend(succ[member])
                    succ[member] = []
                    for watch in (load_watch, store_watch):
                        moved = watch.pop(member, None)
                        if moved:
                            watch.setdefault(rep, []).extend(moved)
                pts[rep] = mask
                merged += len(comp) - 1

        # Reverse completion order is topological order (Tarjan emits an
        # SCC only after everything it reaches), so one sweep suffices.
        if not sweep:
            return merged
        for comp in reversed(comps):
            rep = find(comp[0])
            mask = pts[rep]
            if not mask:
                continue
            for raw in succ[rep]:
                dst = find(raw)
                if dst != rep:
                    pts[dst] |= mask
        return merged

    # -- phase 2 machinery: difference propagation --------------------------
    from collections import deque

    pending = {}
    queue = deque()

    def push(node, delta):
        rep = find(node)
        new = delta & ~pts[rep]
        if new:
            pts[rep] |= new
            if rep in pending:
                pending[rep] |= new
            else:
                pending[rep] = new
                queue.append(rep)

    def expand(rep, delta):
        """New objects reached ``rep``: materialize slot copy edges."""
        for i in load_watch.get(rep, ()):
            new = delta & ~load_done[i]
            if new:
                load_done[i] |= new
                fid = flat.load_field[i]
                target = flat.load_target[i]
                for oid in iter_bits(new):
                    sid = slot_node(oid, fid)
                    succ[sid].append(target)
                    mask = pts[find(sid)]
                    if mask:
                        push(target, mask)
        for i in store_watch.get(rep, ()):
            new = delta & ~store_done[i]
            if new:
                store_done[i] |= new
                fid = flat.store_field[i]
                source = flat.store_source[i]
                src_rep = find(source)
                mask = pts[src_rep]
                for oid in iter_bits(new):
                    sid = slot_node(oid, fid)
                    succ[src_rep].append(sid)
                    if mask:
                        push(sid, mask)

    # Phase 1: static cycles + one topological bulk sweep.
    rounds += 1
    collapsed += tarjan_pass()

    # Phase 2: seed the complex constraints with everything the sweep
    # produced, then drain deltas.  Re-collapse when the worklist churns
    # far beyond graph size (a heap-formed cycle being re-propagated).
    seen_reps = set()
    for base in list(load_watch) + list(store_watch):
        rep = find(base)
        if rep not in seen_reps:
            seen_reps.add(rep)
            mask = pts[rep]
            if mask:
                expand(rep, mask)
    churn_limit = 4 * (len(parent) + 16)
    dynamic = bool(slot_table)
    while queue:
        pops += 1
        if pops % churn_limit == 0:
            # Interim online collapse: merge the cycle being churned.
            rounds += 1
            collapsed += tarjan_pass()
            pending.clear()
            queue.clear()
            for base in set(load_watch) | set(store_watch):
                rep = find(base)
                mask = pts[rep]
                if mask:
                    expand(rep, mask)
            continue
        rep = queue.popleft()
        delta = pending.pop(rep, 0)
        if not delta:
            continue
        live = find(rep)
        if live != rep:
            push(live, delta)
            continue
        for raw in succ[rep]:
            dst = find(raw)
            if dst != rep:
                push(dst, delta)
        expand(rep, delta)

    # Phase 3: cycles formed through the heap have converged to equal
    # bitsets; collapse them so they share one representative mask.
    if dynamic:
        rounds += 1
        collapsed += tarjan_pass(sweep=False)

    # -- freeze into the result view --------------------------------------
    rep_to_idx = {}
    masks = []

    def mask_idx(node):
        rep = find(node)
        idx = rep_to_idx.get(rep)
        if idx is None:
            idx = rep_to_idx[rep] = len(masks)
            masks.append(pts[rep])
        return idx

    var_reps = [mask_idx(v) for v in range(nv)]
    slot_reps = {}
    for (oid, fid), sid in slot_index.items():
        slot_reps[(flat.site_table[oid], flat.field_table[fid])] = mask_idx(sid)

    table = MaskTable(ints=masks)
    stats = {
        "nodes": len(parent),
        "slot_nodes": len(slot_table),
        "sites": len(flat.site_table),
        "copy_edges": len(flat.copy_src),
        "bitset_bytes": table.nbytes(),
        "sccs_collapsed": collapsed,
        "rounds": rounds,
    }
    return FlatAndersenResult(
        pag,
        flat.var_index,
        flat.site_table,
        table,
        var_reps,
        slot_reps,
        stats=stats,
    )


def analyze(program, callgraph):
    """Build the PAG for ``program`` under ``callgraph`` and solve it."""
    return solve_flat(PAG(program, callgraph))


# -- serialization -----------------------------------------------------------


def snapshot_flat(result):
    """Plain-data snapshot of a :class:`FlatAndersenResult`.

    The masks serialize as one blob + offset table — the artifact
    cache's on-disk currency and the fleet's hand-off payload.  ``vars``
    is in vid order, so hydration rebuilds the same index.
    """
    offsets, blob = result._masks.encode()
    inverse = [None] * len(result._var_index)
    for key, vid in result._var_index.items():
        inverse[vid] = key
    return {
        "kind": "flat",
        "vars": [list(key) for key in inverse],
        "sites": list(result._site_table),
        "var_reps": list(result._var_reps),
        "slots": sorted(
            (site, field, idx)
            for (site, field), idx in result._slot_reps.items()
        ),
        "mask_offsets": offsets,
        "mask_blob": blob,
        "stats": dict(result.stats),
    }


def hydrate_flat(data):
    """Rebuild a :class:`FlatAndersenResult` from :func:`snapshot_flat`
    output.  Masks stay undecoded until queried."""
    var_index = {
        (sig, name): vid for vid, (sig, name) in enumerate(data["vars"])
    }
    masks = MaskTable(
        offsets=data["mask_offsets"], blob=data["mask_blob"]
    )
    slot_reps = {
        (site, field): idx for site, field, idx in data["slots"]
    }
    return FlatAndersenResult(
        None,
        var_index,
        list(data["sites"]),
        masks,
        list(data["var_reps"]),
        slot_reps,
        stats=data.get("stats"),
    )

