"""Integer-flat points-to kernel: the whole-program Andersen solver.

A standard inclusion-based, flow-insensitive, field-sensitive solve over
the PAG, and the sound baseline of this reproduction: the demand-driven
CFL solver refines its answers and falls back to it when its work
budget is exhausted.  Instead of dicts of Python sets keyed by rich
:class:`~repro.pta.pag.VarNode` objects, the solver works on integers:

* **Interned graph** — the :class:`~repro.pta.pag.PAG` is already dense
  integer tables: variable, site, field and call-site ids, and one
  parallel int array per edge role plus per-node index lists, so the
  solve starts from the graph as built;
* **Bitset points-to sets** — a points-to set is one Python big int
  whose bit ``i`` means "may point to allocation site ``i``"; union and
  intersection are single ``|``/``&`` machine-word loops instead of
  per-element hash operations;
* **Online SCC collapse** — an iterative Tarjan pass over the copy
  graph (including copy edges discovered through loads/stores) merges
  every cycle into one union-find representative, so copy cycles share
  a single points-to bitset;
* **Topologically-ordered propagation** — Tarjan emits SCCs in reverse
  topological order, so one propagation sweep reaches the fixpoint of
  the static edge set;
* **Flat serialization** — the solved bitsets serialize as one byte
  blob plus an offset table (:func:`snapshot_flat`), part of the
  substrate bytes that the artifact cache stores and the daemon's
  session pool keeps (:mod:`repro.core.cache.serialize`); masks stay
  undecoded until a query needs them, so hydrating a result costs
  milliseconds.

The result type, :class:`FlatAndersenResult`, answers ``pts``,
``field_pts``, ``may_alias`` and ``heap_points_to_pairs``.  The plain
dict-of-sets solver it replaced lives on under ``tests/`` as the
differential-test oracle.
"""

from repro.pta.pag import PAG, VarNode


# -- mask tables -------------------------------------------------------------


class MaskTable:
    """A table of points-to bitsets, decodable lazily from a byte blob.

    Solver-built tables hold live ints; hydrated tables hold an
    ``(offsets, blob)`` pair and decode each mask on first use, which
    is what makes hydrating a substrate cheap: it never touches the
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
       de-duplicates masks and counts the SCC).  It searches only from
       the representatives of heap slots: every full pass leaves the
       copy graph acyclic, and every edge added since has a slot at one
       end, so any cycle left passes through a slot.
    """
    nv = len(pag.var_table)

    pts = list(pag.new_mask)
    succ = [[] for _ in range(nv)]
    for src, dst in zip(pag.copy_src, pag.copy_dst):
        succ[src].append(dst)
    parent = list(range(nv))

    slot_index = {}
    slot_table = []
    n_loads = len(pag.load_base)
    n_stores = len(pag.store_base)
    load_done = [0] * n_loads
    store_done = [0] * n_stores
    #: rep node -> constraint indexes watching its points-to growth
    load_watch = {}
    store_watch = {}
    for i in range(n_loads):
        load_watch.setdefault(pag.load_base[i], []).append(i)
    for i in range(n_stores):
        store_watch.setdefault(pag.store_base[i], []).append(i)

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

    def tarjan_pass(sweep=True, starts=None):
        """Collapse cycles among current representatives reachable from
        ``starts`` (default: every node); optionally sweep the SCC DAG
        once in topological order.  Returns the number of nodes merged
        away.  The final post-fixpoint pass passes ``sweep=False`` —
        propagation is already complete, collapsing is purely mask
        sharing."""
        n = len(parent)
        par = parent
        index = [-1] * n
        low = [0] * n
        on = bytearray(n)
        stack = []
        comps = []  # SCC member lists, in reverse topological order
        counter = 0
        for start in range(n) if starts is None else starts:
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
                fid = pag.load_field[i]
                target = pag.load_target[i]
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
                fid = pag.store_field[i]
                source = pag.store_source[i]
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
        collapsed += tarjan_pass(
            sweep=False, starts=[find(sid) for sid in range(nv, len(parent))]
        )

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
        slot_reps[(pag.site_table[oid], pag.field_table[fid])] = mask_idx(sid)

    table = MaskTable(ints=masks)
    stats = {
        "nodes": len(parent),
        "slot_nodes": len(slot_table),
        "sites": len(pag.site_table),
        "copy_edges": len(pag.copy_src),
        "bitset_bytes": table.nbytes(),
        "sccs_collapsed": collapsed,
        "rounds": rounds,
    }
    return FlatAndersenResult(
        pag,
        pag.var_index,
        pag.site_table,
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

    The masks serialize as one blob + offset table, inside the
    substrate bytes of :mod:`repro.core.cache.serialize`.  ``vars`` is
    in vid order, so hydration rebuilds the same index.
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

