"""Demand-driven CFL-reachability points-to analysis.

Following the paper's Section 4 (and the demand-driven formulation it
cites), points-to queries are answered by traversing the PAG backwards
from a variable node, rather than by solving the whole program:

* a ``new`` edge reached backwards yields an allocation site;
* ``assign`` edges are followed in reverse;
* a ``load`` ``y = z.f`` reached backwards requires an *alias* subquery:
  find allocation sites of ``z``, then continue backwards from the source
  of every store ``w.f = v`` whose base ``w`` may point to one of those
  sites (the matched-parentheses ``putfield``/``getfield`` of the CFL);
* interprocedural assign edges carry call-site labels; a traversal must
  keep these *balanced*: entering a method through a return edge at call
  site ``c`` and leaving through a parameter edge must use the same ``c``
  (the matched call parentheses).  Unbalanced-but-feasible prefixes are
  allowed, as in all demand-driven formulations.

Each query runs under a node budget.  When the budget is exhausted the
solver raises :class:`repro.errors.BudgetExhausted`; the public entry point
catches it and falls back to the whole-program Andersen result, which is
sound — the refinement-with-fallback structure of practical demand-driven
points-to analyses.
"""

from repro.errors import BudgetExhausted
from repro.pta.kernel import iter_bits, solve_flat
from repro.pta.pag import DIR_ENTER, DIR_NONE, VarNode


class CFLPointsTo:
    """Demand-driven points-to solver over a PAG.

    The traversal runs on the PAG's integer tables: states are
    ``(vid, call-stack)`` pairs of dense ints, reached allocation sites
    accumulate in one bitset, and labels are only decoded when a query's
    answer is frozen into the memo.  Budget accounting is unchanged —
    one tick per popped state, and states are deduplicated by a
    seen-set, so the tick total (and therefore exhaustion behavior) is
    identical to the object-graph traversal this replaces.

    Parameters
    ----------
    pag:
        The pointer-assignment graph.
    budget:
        Maximum traversal steps per top-level query.
    max_alias_depth:
        Recursion bound on alias subqueries triggered by loads; deeper
        loads conservatively give up (raising ``BudgetExhausted``).
    fallback:
        Optional precomputed Andersen result used when a query cannot be
        answered within budget; computed lazily when omitted.
    """

    def __init__(self, pag, budget=100_000, max_alias_depth=12, fallback=None):
        self.pag = pag
        self.budget = budget
        self.max_alias_depth = max_alias_depth
        self._fallback = fallback
        self._memo = {}

    # -- public API --------------------------------------------------------

    def points_to(self, node):
        """Allocation-site labels that ``node`` may point to.

        Falls back to the Andersen result when the demand-driven traversal
        exceeds its budget, so the answer is always sound.
        """
        try:
            return self.points_to_refined(node)
        except BudgetExhausted:
            return self.fallback().pts(node)

    def points_to_refined(self, node):
        """Demand-driven answer only; raises ``BudgetExhausted`` on budget
        overrun instead of falling back."""
        if node in self._memo:
            return self._memo[node]
        state = _QueryState(self.budget)
        vid = self.pag.var_index.get((node.method_sig, node.name))
        if vid is None:
            mask = 0
        else:
            mask = self._flows_to_backwards(vid, state, depth=0)
        table = self.pag.site_table
        result = frozenset(table[bit] for bit in iter_bits(mask))
        self._memo[node] = result
        return result

    def pts_of(self, method_sig, var):
        return self.points_to(VarNode(method_sig, var))

    def is_memoized(self, node):
        """Whether a refined answer for ``node`` is already cached (the
        query-metering facade distinguishes memo hits from fresh work)."""
        return node in self._memo

    def may_alias(self, node_a, node_b):
        return bool(self.points_to(node_a) & self.points_to(node_b))

    def fallback(self):
        if self._fallback is None:
            self._fallback = solve_flat(self.pag)
        return self._fallback

    # -- traversal ---------------------------------------------------------

    def _flows_to_backwards(self, root, state, depth):
        """Bitset of allocation sites with a backwards flows-to path to
        variable id ``root``.

        The traversal state is (vid, call-stack).  The call stack holds
        call-site ids whose *exit* (return) edge was crossed backwards
        and whose matching *enter* edge has not yet been seen.
        """
        if depth > self.max_alias_depth:
            raise BudgetExhausted("alias recursion depth exceeded")
        pag = self.pag
        new_mask = pag.new_mask
        assigns_into = pag.assigns_into
        loads_into = pag.loads_into
        stores_by_field = pag.stores_by_field
        results = 0
        start = (root, ())
        seen = {start}
        work = [start]
        while work:
            vid, stack = work.pop()
            state.tick()
            results |= new_mask[vid]
            for src, cid, code in assigns_into[vid]:
                if code == DIR_NONE:
                    nxt = (src, stack)
                elif code != DIR_ENTER:
                    # Backwards across target = return@c: we *enter* the
                    # callee; remember c so the eventual parameter exit
                    # must match.
                    nxt = (src, stack + (cid,))
                elif stack:
                    # Backwards across param = arg@c: we *leave* the
                    # callee into the caller at c; a mismatched
                    # parenthesis is an infeasible path.
                    if stack[-1] != cid:
                        continue
                    nxt = (src, stack[:-1])
                else:
                    # Unbalanced-but-feasible: query started inside the
                    # callee.
                    nxt = (src, ())
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
            # Loads into this node: alias subquery through the heap.
            for i in loads_into[vid]:
                base_sites = self._flows_to_backwards(
                    pag.load_base[i], state, depth + 1
                )
                fid = pag.load_field[i]
                for j in stores_by_field.get(fid, ()):
                    store_base_sites = self._flows_to_backwards(
                        pag.store_base[j], state, depth + 1
                    )
                    if base_sites & store_base_sites:
                        # Heap path discards local call balance: objects
                        # can flow through the heap between unrelated
                        # contexts.
                        nxt = (pag.store_source[j], ())
                        if nxt not in seen:
                            seen.add(nxt)
                            work.append(nxt)
        return results


class _QueryState:
    """Per-query step counter enforcing the work budget."""

    __slots__ = ("remaining",)

    def __init__(self, budget):
        self.remaining = budget

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted("points-to query budget exhausted")
