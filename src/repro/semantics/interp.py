"""Concrete interpreter implementing the operational semantics of Figure 3.

The interpreter executes a program from its entry point, maintaining the
loop iteration map, environment and heap of the paper's judgment form, and
records concrete heap store/load effects.  Nondeterministic conditions and
loop trip counts are resolved by a :class:`Schedule`, which makes runs
reproducible and lets hypothesis drive them.

``start()`` invoked on an instance of (a subclass of) ``Thread`` runs the
object's ``run`` method inline — sufficient to reproduce the heap effects
that matter for leak ground truth.
"""

import random

from repro.errors import InterpError
from repro.ir.stmts import (
    Block,
    Cond,
    CopyStmt,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    NullStmt,
    ReturnStmt,
    StoreNullStmt,
    StoreStmt,
    THIS_VAR,
)
from repro.ir.types import ELEM_FIELD, THREAD_CLASS
from repro.semantics.values import LoadEffect, RuntimeObject, StoreEffect, Trace


class Schedule:
    """Resolves nondeterminism: branch outcomes and loop trip counts."""

    def branch(self, stmt):  # pragma: no cover - interface
        raise NotImplementedError

    def trips(self, loop_label):  # pragma: no cover - interface
        raise NotImplementedError


class FixedSchedule(Schedule):
    """Deterministic schedule: fixed trip counts and branch outcomes.

    ``trips_map`` maps loop labels to trip counts (``default_trips``
    otherwise).  ``branches`` is either a constant bool applied to every
    nondeterministic branch or a list consumed in order (restarting from
    the beginning when exhausted).
    """

    def __init__(self, trips_map=None, default_trips=3, branches=True):
        self._trips = dict(trips_map or {})
        self._default = default_trips
        if isinstance(branches, bool):
            self._branches = [branches]
        else:
            self._branches = list(branches) or [True]
        self._cursor = 0

    def branch(self, stmt):
        outcome = self._branches[self._cursor % len(self._branches)]
        self._cursor += 1
        return outcome

    def trips(self, loop_label):
        return self._trips.get(loop_label, self._default)


class RandomSchedule(Schedule):
    """Seeded random schedule for property-based testing."""

    def __init__(self, seed=0, max_trips=4, true_bias=0.5):
        self._rng = random.Random(seed)
        self._max_trips = max_trips
        self._bias = true_bias

    def branch(self, stmt):
        return self._rng.random() < self._bias

    def trips(self, loop_label):
        return self._rng.randint(0, self._max_trips)


class _Return(Exception):
    """Internal: unwinds a frame when a return statement executes."""

    def __init__(self, value):
        self.value = value


class Interpreter:
    """Concrete executor of IR programs with effect recording.

    Parameters
    ----------
    program:
        A sealed IR program with an entry point.
    schedule:
        Nondeterminism resolver; defaults to ``FixedSchedule()``.
    max_steps:
        Execution budget guarding against runaway recursion.
    strict:
        When true, dereferencing null raises :class:`InterpError`; when
        false (default), null loads yield null and null stores are no-ops,
        which keeps randomly generated programs executable.
    """

    def __init__(
        self,
        program,
        schedule=None,
        max_steps=200_000,
        strict=False,
        iteration_hook=None,
        call_hook=None,
    ):
        self.program = program
        self.schedule = schedule or FixedSchedule()
        self.max_steps = max_steps
        self.strict = strict
        #: optional callable(loop_label, iteration, interpreter) invoked
        #: after each completed loop iteration — used by the GC profiler
        self.iteration_hook = iteration_hook
        #: optional callable(stmt, receiver, interpreter) invoked for
        #: every non-static call with a non-null receiver, before
        #: dispatch — used by the resource-event oracle
        self.call_hook = call_hook
        self.trace = Trace()
        self._steps = 0
        self._oid = 0
        #: live iteration counters, the paper's map nu (loop label -> j)
        self._nu = {}
        #: iterations per (method sig, loop label): labels name loops
        #: within one method only, so profiles tell same-label loops apart
        self._trips = {}
        #: labels of loops currently executing, for creation snapshots
        self._active_loops = []
        #: environments of active frames, outermost first (GC roots)
        self._frames = []

    # -- public ------------------------------------------------------------

    def run(self):
        """Execute from the entry method; returns the recorded trace."""
        entry = self.program.entry_method()
        if entry.params:
            raise InterpError("entry method %s must take no parameters" % entry.sig)
        env = {}
        self._frames.append(env)
        try:
            self._exec_block(entry.body, env)
        except _Return:
            pass
        finally:
            self._frames.pop()
        return self.trace

    def loop_counters(self):
        """Final iteration counts per loop label (the paper's map nu)."""
        return dict(self._nu)

    def loop_trips(self):
        """Final iteration counts per ``(method sig, loop label)``, for
        profile-guided loop ranking: loops of different methods that
        share a label count apart."""
        return dict(self._trips)

    def live_objects(self):
        """Objects reachable from any active frame right now — a
        mark-phase over the current environments and heap, used by the
        GC growth profiler."""
        seen = {}
        work = []
        for env in self._frames:
            for value in env.values():
                if value is not None and value.oid not in seen:
                    seen[value.oid] = value
                    work.append(value)
        while work:
            obj = work.pop()
            successors = list(obj.fields.values())
            if obj.elements:
                successors.extend(obj.elements)
            for value in successors:
                if value is not None and value.oid not in seen:
                    seen[value.oid] = value
                    work.append(value)
        return list(seen.values())

    # -- helpers -----------------------------------------------------------

    def _tick(self):
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError("execution budget of %d steps exceeded" % self.max_steps)

    def _loop_state(self):
        return {label: self._nu[label] for label in self._active_loops}

    def _null_fault(self, what, stmt):
        if self.strict:
            raise InterpError("null dereference in %s at %r" % (what, stmt))

    def _read(self, env, var, stmt):
        if var not in env:
            # Uninitialized locals read as null, as in a verifier-less
            # setting; validation flags truly undefined names.
            return None
        return env[var]

    # -- execution ---------------------------------------------------------

    def _exec_block(self, block, env):
        for stmt in block.stmts:
            self._exec_stmt(stmt, env)

    def _eval_cond(self, cond, env, stmt):
        if cond.kind == Cond.NONDET:
            return bool(self.schedule.branch(stmt))
        value = self._read(env, cond.var, stmt)
        return (value is not None) if cond.kind == Cond.NONNULL else (value is None)

    def _exec_stmt(self, stmt, env):
        self._tick()
        if isinstance(stmt, Block):
            self._exec_block(stmt, env)
        elif isinstance(stmt, NewStmt):
            self._oid += 1
            obj = RuntimeObject(
                self._oid,
                stmt.site,
                stmt.type.class_name,
                stmt.type.is_array,
                self._loop_state(),
            )
            self.trace.objects.append(obj)
            env[stmt.target] = obj
        elif isinstance(stmt, CopyStmt):
            env[stmt.target] = self._read(env, stmt.source, stmt)
        elif isinstance(stmt, NullStmt):
            env[stmt.target] = None
        elif isinstance(stmt, LoadStmt):
            base = self._read(env, stmt.base, stmt)
            if base is None:
                self._null_fault("load", stmt)
                env[stmt.target] = None
                return
            if base.is_array and stmt.field == ELEM_FIELD:
                value = base.elements[-1] if base.elements else None
            else:
                value = base.fields.get(stmt.field)
            env[stmt.target] = value
            if value is not None:
                self.trace.loads.append(
                    LoadEffect(value, stmt.field, base, self._loop_state(), stmt.uid)
                )
        elif isinstance(stmt, StoreStmt):
            base = self._read(env, stmt.base, stmt)
            value = self._read(env, stmt.source, stmt)
            if base is None:
                self._null_fault("store", stmt)
                return
            if base.is_array and stmt.field == ELEM_FIELD:
                # element writes land in fresh indices: containers grow
                if value is not None:
                    base.elements.append(value)
            else:
                base.fields[stmt.field] = value
            if value is not None:
                self.trace.stores.append(
                    StoreEffect(value, stmt.field, base, self._loop_state(), stmt.uid)
                )
        elif isinstance(stmt, StoreNullStmt):
            base = self._read(env, stmt.base, stmt)
            if base is None:
                self._null_fault("null store", stmt)
                return
            if base.is_array and stmt.field == ELEM_FIELD:
                base.elements.clear()  # bulk removal (e.g. clear())
            else:
                base.fields[stmt.field] = None  # the destructive update
        elif isinstance(stmt, InvokeStmt):
            self._exec_invoke(stmt, env)
        elif isinstance(stmt, ReturnStmt):
            value = self._read(env, stmt.value, stmt) if stmt.value else None
            raise _Return(value)
        elif isinstance(stmt, IfStmt):
            if self._eval_cond(stmt.cond, env, stmt):
                self._exec_block(stmt.then_block, env)
            else:
                self._exec_block(stmt.else_block, env)
        elif isinstance(stmt, LoopStmt):
            self._exec_loop(stmt, env)
        else:  # pragma: no cover - defensive
            raise InterpError("cannot execute %r" % stmt)

    def _exec_loop(self, stmt, env):
        trips = self.schedule.trips(stmt.label)
        key = (stmt.method.sig, stmt.label)
        self._active_loops.append(stmt.label)
        try:
            for _ in range(trips):
                if stmt.cond.kind != Cond.NONDET and not self._eval_cond(
                    stmt.cond, env, stmt
                ):
                    break
                # Rule WHILE: the iteration counter increments per iteration
                # and persists across loop re-entry.
                self._nu[stmt.label] = self._nu.get(stmt.label, 0) + 1
                self._trips[key] = self._trips.get(key, 0) + 1
                self._exec_block(stmt.body, env)
                if self.iteration_hook is not None:
                    self.iteration_hook(stmt.label, self._nu[stmt.label], self)
        finally:
            self._active_loops.pop()

    def _exec_invoke(self, stmt, env):
        if stmt.is_static:
            callee = self.program.method(
                "%s.%s" % (stmt.static_class, stmt.method_name)
            )
            receiver = None
        else:
            receiver = self._read(env, stmt.base, stmt)
            if receiver is None:
                self._null_fault("invoke", stmt)
                if stmt.target:
                    env[stmt.target] = None
                return
            if self.call_hook is not None:
                self.call_hook(stmt, receiver, self)
            if stmt.method_name == "start" and self.program.is_subclass(
                receiver.class_name, THREAD_CLASS
            ):
                # Thread.start(): run the thread body inline.
                callee = self._thread_run_method(receiver)
                if callee is None:
                    if stmt.target:
                        env[stmt.target] = None
                    return
            else:
                callee = self.program.resolve_dispatch(
                    receiver.class_name, stmt.method_name
                )
        frame = {}
        if not callee.is_static and receiver is not None:
            frame[THIS_VAR] = receiver
        for param, arg in zip(callee.params, stmt.args):
            frame[param] = self._read(env, arg, stmt)
        result = None
        self._frames.append(frame)
        try:
            self._exec_block(callee.body, frame)
        except _Return as ret:
            result = ret.value
        finally:
            self._frames.pop()
        if stmt.target:
            env[stmt.target] = result

    def _thread_run_method(self, receiver):
        try:
            return self.program.resolve_dispatch(receiver.class_name, "run")
        except Exception:
            return None


def execute(program, schedule=None, **kwargs):
    """Run ``program`` and return its :class:`Trace` (convenience)."""
    return Interpreter(program, schedule=schedule, **kwargs).run()
