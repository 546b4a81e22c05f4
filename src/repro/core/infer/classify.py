"""Loop classification: static features of every labelled loop.

For each method the classifier reads the natural-loop nest from the
structured body (:func:`natural_loops`) and derives per-loop features
that correlate with "long-running dispatch loop that allocates and
publishes objects" — the shape real leaks cluster in:

* **kind** — ``unbounded`` (nondeterministic condition: the event-loop
  shape) vs. ``guarded`` (a data-dependent ``nonnull``/``null`` test:
  the counted/terminating shape);
* **nest depth** — from the natural-loop nest (1 = outermost; outermost
  loops are the natural event loops);
* **allocation mass** — ``new`` statements lexically inside one
  iteration, plus allocations in callees reachable through the call
  graph from the loop's call sites;
* **reachability** — whether the enclosing method is reachable from the
  program entry, and its call-graph distance from the entry (dispatch
  loops sit close to ``main``).

Everything here is a pure function of the program + call graph, so the
classification is deterministic across runs, hash seeds, and scan
backends.
"""

from repro.ir.stmts import (
    Block,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    ReturnStmt,
    StoreStmt,
    walk,
)

#: Loop kinds: a nondeterministic condition can spin forever (the event
#: loop / worker-dispatch shape); a ``nonnull``/``null`` guard is a
#: data-dependent, typically terminating traversal.
UNBOUNDED = "unbounded"
GUARDED = "guarded"


class LoopProfile:
    """Classification record of one labelled loop."""

    __slots__ = (
        "method_sig",
        "label",
        "kind",
        "nest_depth",
        "blocks",
        "allocs_direct",
        "allocs_transitive",
        "stores",
        "loads",
        "calls",
        "reachable",
        "call_distance",
    )

    def __init__(
        self,
        method_sig,
        label,
        kind,
        nest_depth,
        blocks,
        allocs_direct,
        allocs_transitive,
        stores,
        loads,
        calls,
        reachable,
        call_distance,
    ):
        self.method_sig = method_sig
        self.label = label
        self.kind = kind
        self.nest_depth = nest_depth
        self.blocks = blocks
        self.allocs_direct = allocs_direct
        self.allocs_transitive = allocs_transitive
        self.stores = stores
        self.loads = loads
        self.calls = calls
        self.reachable = reachable
        #: call-graph distance of the enclosing method from the entry
        #: (0 = the entry itself); ``None`` when unreachable
        self.call_distance = call_distance

    def features(self):
        """JSON-ready feature dict (stable key set)."""
        return {
            "kind": self.kind,
            "nest_depth": self.nest_depth,
            "blocks": self.blocks,
            "allocs_direct": self.allocs_direct,
            "allocs_transitive": self.allocs_transitive,
            "stores": self.stores,
            "loads": self.loads,
            "calls": self.calls,
            "reachable": self.reachable,
            "call_distance": self.call_distance,
        }

    def __repr__(self):
        return "LoopProfile(%s:%s, %s, depth=%d)" % (
            self.method_sig,
            self.label,
            self.kind,
            self.nest_depth,
        )


def entry_distances(program, callgraph):
    """BFS distance (in call edges) of every reachable method from the
    program entry; ``{}`` when the program has no entry point."""
    if not program.entry:
        return {}
    try:
        entry = program.entry_method()
    except Exception:
        return {}
    distances = {entry.sig: 0}
    frontier = [entry]
    while frontier:
        next_frontier = []
        for method in frontier:
            for callee in callgraph.callees_of(method):
                if callee.sig not in distances:
                    distances[callee.sig] = distances[method.sig] + 1
                    next_frontier.append(callee)
        frontier = next_frontier
    return distances


class ProgramIndex:
    """Per-run method summaries shared by the inference stages.

    One statement sweep per method collects everything the classifier
    and the candidate scorer re-read — direct allocation / store counts,
    the invoke and labelled-loop statements — so the inference pass
    costs one walk of the program on top of a warm session, not one
    walk per candidate.  Callee adjacency is resolved lazily, only for
    methods the allocation closures actually reach.
    """

    __slots__ = (
        "callgraph",
        "direct_allocs",
        "stores",
        "invokes",
        "loop_stmts",
        "_callee_sigs",
        "_methods",
        "distances",
        "reachable_sigs",
    )

    def __init__(self, program, callgraph):
        self.callgraph = callgraph
        self.direct_allocs = {}
        self.stores = {}
        self.invokes = {}
        self.loop_stmts = {}
        self._callee_sigs = {}
        self._methods = {}
        for method in program.all_methods():
            sig = method.sig
            self._methods[sig] = method
            allocs = stores = 0
            invokes = []
            loops = []
            for stmt in method.statements():
                if isinstance(stmt, NewStmt):
                    allocs += 1
                elif isinstance(stmt, StoreStmt):
                    stores += 1
                elif isinstance(stmt, InvokeStmt):
                    invokes.append(stmt)
                elif isinstance(stmt, LoopStmt):
                    loops.append(stmt)
            self.direct_allocs[sig] = allocs
            self.stores[sig] = stores
            self.invokes[sig] = invokes
            self.loop_stmts[sig] = loops
        self.distances = entry_distances(program, callgraph)
        self.reachable_sigs = {m.sig for m in callgraph.reachable_methods()}

    def callee_sigs(self, sig):
        """Callee signatures of one method (lazily resolved, memoized)."""
        cached = self._callee_sigs.get(sig)
        if cached is None:
            method = self._methods.get(sig)
            cached = (
                tuple(c.sig for c in self.callgraph.callees_of(method))
                if method is not None
                else ()
            )
            self._callee_sigs[sig] = cached
        return cached

    def transitive_allocations(self, invokes):
        """Allocation sites in callees reachable from ``invokes``,
        following the call graph to a fixed point over the precomputed
        method summaries."""
        count = 0
        seen = set()
        work = []
        for invoke in invokes:
            for callee in self.callgraph.targets_of_site(invoke):
                if callee.sig not in seen:
                    seen.add(callee.sig)
                    work.append(callee.sig)
        while work:
            sig = work.pop()
            count += self.direct_allocs.get(sig, 0)
            for nxt in self.callee_sigs(sig):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return count


def _falls_through(stmt):
    """True when control can run past the end of ``stmt``: never past a
    ``return``, past an ``if`` when either arm can, past a loop always."""
    kind = type(stmt)
    if kind is Block:
        return all(map(_falls_through, stmt.stmts))
    if kind is IfStmt:
        return any(map(_falls_through, stmt.children()))
    return kind is not ReturnStmt


def natural_loops(method):
    """Map loop label -> ``(nest depth, blocks)`` of each natural loop of
    ``method``: the numbers its basic-block graph gives, read in one
    backward walk of the structured body (``docs/internals.md``, 2d).

    A loop is natural when the code before it and its body fall through.
    Its blocks are its header and the body's blocks that reach the
    body's end; its depth is 1 plus the enclosing natural loops whose
    body's end the code after it reaches.  ``ends`` counts the innermost
    open natural loops whose body's end the walk's point reaches (to
    reach an outer one's is to reach every inner one's).  Recurses once
    per nesting level, as the parser does.
    """
    shapes = {}
    open_blocks = []  # per open natural loop, outermost first

    def block(ends):
        """Count one block for each loop whose body's end it reaches."""
        for i in range(len(open_blocks) - ends, len(open_blocks)):
            open_blocks[i] += 1

    def sequence(stmts, reached, ends):
        """Walk ``stmts``, whose start is ``reached`` from the entry and
        whose end reaches ``ends`` loop ends; returns its start's."""
        starts = []
        for stmt in stmts:
            starts.append(reached)
            reached = reached and _falls_through(stmt)
        for stmt, reached in zip(reversed(stmts), reversed(starts)):
            kind = type(stmt)
            if kind is Block:
                ends = sequence(stmt.stmts, reached, ends)
            elif kind in (IfStmt, LoopStmt, ReturnStmt):
                block(ends)  # where control continues after it
                if kind is ReturnStmt:
                    ends = 0
                elif kind is IfStmt:
                    ends = max(
                        arm(stmt.then_block, reached, ends),
                        arm(stmt.else_block, reached, ends),
                    )
                elif reached and _falls_through(stmt.body):
                    open_blocks.append(1)  # the header
                    arm(stmt.body, True, ends + 1)
                    shapes[stmt.label] = (ends + 1, open_blocks.pop())
                    block(ends)  # the header, for the loops around it
                else:
                    arm(stmt.body, reached, ends)
                    block(ends)  # the header
        return ends

    def arm(body, reached, ends):
        ends = sequence(body.stmts, reached, ends)
        block(ends)  # its first block
        return ends

    sequence(method.body.stmts, True, 0)
    return shapes


def classify_loops(program, callgraph, index=None):
    """Classify every labelled loop of ``program``.

    Returns :class:`LoopProfile` entries in deterministic program order
    (class declaration order, then loop order within each method).
    ``index`` lets :func:`~repro.core.infer.infer_candidates` share one
    :class:`ProgramIndex` across the inference stages.
    """
    index = index if index is not None else ProgramIndex(program, callgraph)
    distances = index.distances
    reachable_sigs = index.reachable_sigs
    profiles = []
    for method in program.all_methods():
        loops = index.loop_stmts.get(method.sig, ())
        if not loops:
            continue
        nest_info = natural_loops(method)
        for loop in loops:
            body = list(walk(loop.body))
            calls = [s for s in body if isinstance(s, InvokeStmt)]
            depth, blocks = nest_info.get(loop.label, (1, 0))
            profiles.append(
                LoopProfile(
                    method_sig=method.sig,
                    label=loop.label,
                    kind=GUARDED if loop.cond.var else UNBOUNDED,
                    nest_depth=depth,
                    blocks=blocks,
                    allocs_direct=sum(
                        1 for s in body if isinstance(s, NewStmt)
                    ),
                    allocs_transitive=index.transitive_allocations(calls),
                    stores=sum(1 for s in body if isinstance(s, StoreStmt)),
                    loads=sum(1 for s in body if isinstance(s, LoadStmt)),
                    calls=len(calls),
                    reachable=method.sig in reachable_sigs,
                    call_distance=distances.get(method.sig),
                )
            )
    return profiles
