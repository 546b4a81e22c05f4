"""Uniform points-to query interface over either solver.

The leak detector talks to this facade so it can run in whole-program mode
(Andersen) or demand-driven mode (CFL with Andersen fallback); the ablation
benchmark compares the two.

The facade also meters its own traffic: every query bumps the
session-lifetime ``totals`` counters, and — inside a
:meth:`PointsTo.recording` block — a caller-supplied sink, which is how
the analysis pipeline attributes CFL queries, budget exhaustions, and
Andersen fallbacks to individual region runs (the sink is thread-local,
so parallel region checks each meter their own work).
"""

import threading
import time
from contextlib import contextmanager

from repro.errors import BudgetExhausted
from repro.pta.cfl import CFLPointsTo
from repro.pta.kernel import solve_flat
from repro.pta.pag import PAG, VarNode


class Deadline:
    """A wall-clock bound on analysis work, next to the step ``budget``.

    The budget bounds *one* demand-driven query; the deadline bounds a
    whole run (a server request, an ``analyze(deadline_ms=...)`` call).
    Once it passes, the facade stops issuing fresh CFL traversals and
    answers from the sound whole-program Andersen result instead — the
    analysis still completes, just less refined.  ``was_exceeded``
    records whether that degradation ever triggered, which is what a
    server surfaces as ``degraded: true``.
    """

    __slots__ = ("expires_at", "seconds", "was_exceeded")

    def __init__(self, seconds):
        self.seconds = seconds
        self.expires_at = time.monotonic() + seconds
        self.was_exceeded = False

    @classmethod
    def after_ms(cls, milliseconds):
        """A deadline ``milliseconds`` from now, or ``None`` for none."""
        if milliseconds is None:
            return None
        return cls(milliseconds / 1000.0)

    def remaining(self):
        """Seconds left, clamped at zero."""
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self):
        if time.monotonic() >= self.expires_at:
            self.was_exceeded = True
            return True
        return False


class PointsTo:
    """Facade answering variable and heap points-to queries.

    Parameters
    ----------
    program, callgraph:
        The program and the call graph that defines interprocedural edges.
    demand_driven:
        When true, variable queries go through the CFL solver first.
    budget:
        Per-query budget for the demand-driven solver.
    deadline:
        Optional :class:`Deadline` bounding the run's wall-clock time;
        once expired, fresh demand-driven traversals are skipped and
        queries answer from the Andersen fallback (memoized refined
        answers are still served — they cost nothing).  Usually
        installed per-run via :meth:`deadline_scope` rather than here.
    """

    def __init__(
        self, program, callgraph, demand_driven=False, budget=100_000,
        deadline=None,
    ):
        self.program = program
        self.callgraph = callgraph
        self.demand_driven = demand_driven
        self.budget = budget
        self.deadline = deadline
        self._pag = None
        self._andersen = None
        self._cfl = None
        #: facade-lifetime query counters (informational)
        self.totals = {}
        # Reentrant: the andersen property holds the lock while touching
        # the (equally lazy, equally locked) pag property.
        self._solve_lock = threading.RLock()
        self._active = threading.local()

    # -- counters -----------------------------------------------------------

    def _bump(self, name, delta=1):
        self.totals[name] = self.totals.get(name, 0) + delta
        sink = getattr(self._active, "sink", None)
        if sink is not None:
            sink[name] = sink.get(name, 0) + delta

    @contextmanager
    def recording(self, sink):
        """Route this thread's query counters into ``sink`` (a dict) for
        the duration of the block, in addition to ``totals``."""
        previous = getattr(self._active, "sink", None)
        self._active.sink = sink
        try:
            yield sink
        finally:
            self._active.sink = previous

    @contextmanager
    def deadline_scope(self, deadline):
        """Bound the block's queries by ``deadline`` (a :class:`Deadline`
        or ``None``).  Not thread-isolated: deadline-bounded runs are
        serial (the analysis server serializes requests per session,
        and a fleet worker builds its own session per program)."""
        previous = self.deadline
        self.deadline = deadline
        try:
            yield deadline
        finally:
            self.deadline = previous

    def _deadline_expired(self):
        deadline = self.deadline
        return deadline is not None and deadline.expired()

    def degraded(self):
        """Whether the current deadline has already forced a fallback
        answer.  Wall-clock luck is not a property of the program, so
        no memo may keep what is computed from then on."""
        deadline = self.deadline
        return deadline is not None and deadline.was_exceeded

    # -- queries ------------------------------------------------------------

    @property
    def pag(self):
        """The pointer-assignment graph, built on first use.

        Laziness matters for the persistent artifact cache: a session
        hydrated from serialized artifacts (call graph, Andersen result,
        library summaries) answers every query without ever paying the
        PAG construction cost.
        """
        if self._pag is None:
            with self._solve_lock:
                if self._pag is None:
                    self._pag = PAG(self.program, self.callgraph)
        return self._pag

    @property
    def _demand_solver(self):
        if not self.demand_driven:
            return None
        if self._cfl is None:
            with self._solve_lock:
                if self._cfl is None:
                    self._cfl = CFLPointsTo(
                        self.pag, budget=self.budget, fallback=self._andersen
                    )
        return self._cfl

    @property
    def andersen(self):
        if self._andersen is None:
            with self._solve_lock:
                if self._andersen is None:
                    result = solve_flat(self.pag)
                    if self._cfl is not None and self._cfl._fallback is None:
                        self._cfl._fallback = result
                    self._andersen = result
        return self._andersen

    def kernel_stats(self):
        """Solver-kernel statistics of the whole-program result, or
        ``{}`` before the solve."""
        result = self._andersen
        return dict(getattr(result, "stats", None) or {})

    def adopt_andersen(self, result):
        """Install a precomputed whole-program solution (cache hydration).

        The result must have been solved for the same program under the
        same call graph; callers guarantee that via the cache digest key.
        """
        with self._solve_lock:
            self._andersen = result
            if self._cfl is not None and self._cfl._fallback is None:
                self._cfl._fallback = result

    def pts(self, method_sig, var):
        """Allocation sites that ``var`` in ``method_sig`` may point to."""
        return self.pts_node(VarNode(method_sig, var))

    def pts_node(self, node):
        self._bump("var_queries")
        cfl = self._demand_solver
        if cfl is not None:
            if cfl.is_memoized(node):
                self._bump("cfl_queries")
                self._bump("cfl_memo_hits")
                return cfl.points_to_refined(node)
            if self._deadline_expired():
                # Past the deadline: skip fresh demand-driven work and
                # degrade to the sound whole-program answer.
                self._bump("deadline_expiries")
                self._bump("andersen_fallbacks")
                return self.andersen.pts(node)
            self._bump("cfl_queries")
            try:
                return cfl.points_to_refined(node)
            except BudgetExhausted:
                self._bump("budget_exhaustions")
                self._bump("andersen_fallbacks")
                return self.andersen.pts(node)
        return self.andersen.pts(node)

    def field_pts(self, site_label, field):
        """Heap query: contents of ``field`` of objects from ``site_label``.

        Heap slots are only tracked by the whole-program solver; demand-
        driven mode still consults Andersen for these (sound and standard).
        """
        self._bump("heap_queries")
        return self.andersen.field_pts(site_label, field)

    def may_alias(self, sig_a, var_a, sig_b, var_b):
        return bool(self.pts(sig_a, var_a) & self.pts(sig_b, var_b))


def build_points_to(
    program, callgraph, demand_driven=False, budget=100_000, deadline=None
):
    """Construct the points-to facade (convenience wrapper)."""
    return PointsTo(
        program,
        callgraph,
        demand_driven=demand_driven,
        budget=budget,
        deadline=deadline,
    )
