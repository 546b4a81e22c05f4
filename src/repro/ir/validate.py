"""Structural validation of IR programs.

``validate_program`` returns a list of human-readable issues; ``check``
raises :class:`repro.errors.IRError` on the first issue.  Benchmarks and the
frontend run validation so that analysis failures are caught as malformed
input rather than deep inside a solver.

Each method body is checked in one structured walk in text order, with
no CFG.  The walk applies every per-statement rule and threads the set
of variables definitely assigned so far: a use is clean only when every
path from the entry assigns the variable first.  An ``if`` joins the
arms that fall through (the intersection of their sets), so an
assignment on one arm does not count after it; a loop body starts from
what reaches its header and leaves that set unchanged, since it may run
zero times; code after a ``return`` is unreachable and only needs its
variables assigned somewhere in the method.  A use that misses is
classified once the walk has seen all of the method's assignments.

Issues keep the order of a forward pass over the method's control-flow
graph (the test oracle ``tests/cfg/graph.py``) in reverse post-order,
reachable blocks first and then the unreachable ones in block-creation
order.  The walk
numbers its straight-line runs as the graph builder numbers blocks and
records the run each reachable one is first entered from, which fixes
that order without the graph: the else-arm comes before a then-arm that
falls through, a then-arm that does not comes after the rest of its
subtree, a loop body comes after what follows the loop, and unreachable
code comes last.  ``tests/ir/definite_assignment_oracle.py`` iterates
the graph's equations to a fixed point and is the differential oracle.
"""

from repro.errors import IRError, ResolutionError
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


class _MethodWalk:
    """The structured walk of one method body.

    A *run* is what the CFG builder makes one basic block: straight-line
    statements, ended by an ``if`` or loop condition, a ``return`` or
    the end of an arm.  Runs are numbered as the builder numbers blocks
    (the entry is 0 and the exit 1; an ``if`` makes its then, else and
    join runs, a loop its header, body and after runs, a ``return`` the
    run after it).  ``links`` holds ``(parent, run)`` for each reachable
    run but the entry, where ``parent`` is the run a depth-first walk of
    the graph first enters it from; a parent's runs come in the order
    that walk enters them (then before else, a loop body before what
    follows the loop).
    """

    __slots__ = (
        "program",
        "method",
        "by_name",
        "arity",
        "labels",
        "defs",
        "misses",
        "links",
        "runs",
        "stmt_issues",
        "unsealed",
        "seen_labels",
    )

    def __init__(self, program, method, by_name, arity, labels, initial):
        self.program = program
        self.method = method
        self.by_name = by_name
        self.arity = arity
        self.labels = labels
        #: every variable the method assigns, parameters included
        self.defs = set(initial)
        #: (run, var, role, stmt) of each use not surely assigned there
        self.misses = []
        self.links = []
        self.runs = 2
        self.stmt_issues = []
        self.unsealed = None
        self.seen_labels = set()

    def walk(self, block, live, run, reached):
        """Walk ``block`` from ``run`` with ``live`` the variables surely
        assigned on entry (``reached`` false in unreachable code, where
        ``live`` only collects assignments); ``live`` grows as it goes.

        Returns ``(live, run, reached)`` where control leaves the block.
        Recurses once per nesting level, as the parser does.
        """
        if block.uid is None and self.unsealed is None:
            self.unsealed = block
        misses = self.misses
        defs = self.defs
        for stmt in block.stmts:
            if stmt.uid is None and self.unsealed is None:
                self.unsealed = stmt
            kind = type(stmt)
            if kind is CopyStmt:
                if stmt.source not in live:
                    misses.append((run, stmt.source, "source", stmt))
                live.add(stmt.target)
                defs.add(stmt.target)
            elif kind is InvokeStmt:
                for arg in stmt.args:
                    if arg not in live:
                        misses.append((run, arg, "argument", stmt))
                if stmt.base is not None and stmt.base not in live:
                    misses.append((run, stmt.base, "receiver", stmt))
                if stmt.target:
                    live.add(stmt.target)
                    defs.add(stmt.target)
                _invoke_issues(
                    self.program,
                    self.method,
                    stmt,
                    self.by_name,
                    self.stmt_issues,
                    self.arity,
                )
            elif kind is ReturnStmt:
                if stmt.value and stmt.value not in live:
                    misses.append((run, stmt.value, "return value", stmt))
                run = self.runs
                self.runs += 1
                live = set()
                reached = False
            elif kind is LoadStmt:
                if stmt.base not in live:
                    misses.append((run, stmt.base, "base", stmt))
                live.add(stmt.target)
                defs.add(stmt.target)
            elif kind is NewStmt:
                live.add(stmt.target)
                defs.add(stmt.target)
                if stmt.type.class_name not in self.program.classes:
                    self.stmt_issues.append(
                        "%s: allocation of unknown class %s"
                        % (self.method.sig, stmt.type.class_name)
                    )
            elif kind is StoreStmt:
                if stmt.base not in live:
                    misses.append((run, stmt.base, "base", stmt))
                if stmt.source not in live:
                    misses.append((run, stmt.source, "source", stmt))
            elif kind is NullStmt:
                live.add(stmt.target)
                defs.add(stmt.target)
            elif kind is StoreNullStmt:
                if stmt.base not in live:
                    misses.append((run, stmt.base, "base", stmt))
            elif kind is IfStmt:
                live, run, reached = self.branch(stmt, live, run, reached)
            elif kind is LoopStmt:
                run = self.loop(stmt, live, run, reached)
            elif kind is Block:
                live, run, reached = self.walk(stmt, live, run, reached)
        return live, run, reached

    def condition(self, stmt, live, run):
        cond = stmt.cond
        if cond.kind != Cond.NONDET and cond.var not in live:
            self.misses.append((run, cond.var, "condition variable", stmt))

    def branch(self, stmt, live, run, reached):
        """An ``if`` ends ``run`` with its condition; the join takes the
        assignments common to the arms that fall through."""
        self.condition(stmt, live, run)
        then_run = self.runs
        self.runs += 3
        if reached:
            self.links.append((run, then_run))
        then_live, then_end, then_falls = self.walk(
            stmt.then_block, set(live), then_run, reached
        )
        if reached:
            self.links.append((run, then_run + 1))
        else_live, else_end, else_falls = self.walk(
            stmt.else_block, live, then_run + 1, reached
        )
        join = then_run + 2
        if then_falls:
            if else_falls:
                then_live &= else_live
            self.links.append((then_end, join))
            return then_live, join, True
        if else_falls:
            self.links.append((else_end, join))
            return else_live, join, True
        return set(), join, False

    def loop(self, stmt, live, run, reached):
        """A loop's header checks its condition; the body starts from
        what reaches the header, and what follows gets the same set.
        Returns the run after the loop."""
        if stmt.label in self.seen_labels:
            self.labels.append(
                "%s: duplicate loop label %r" % (self.method.sig, stmt.label)
            )
        self.seen_labels.add(stmt.label)
        header = self.runs
        self.runs += 3
        if reached:
            self.links.append((run, header))
            self.links.append((header, header + 1))
        self.condition(stmt, live, header)
        self.walk(stmt.body, set(live), header + 1, reached)
        if reached:
            self.links.append((header, header + 2))
        return header + 2

    def def_use_issues(self):
        """The misses that are issues: reachable runs in reverse
        post-order, then unreachable runs by number.

        In the reverse post-order of a depth-first walk, each node comes
        first in its subtree and its children's subtrees follow in the
        reverse of the order the walk entered them.  So inserting each
        run of ``links`` right after its parent, in ``links`` order,
        builds that order as a linked list.
        """
        misses = self.misses
        if not misses:
            return []
        following = {}
        for parent, child in self.links:
            following[child] = following.get(parent)
            following[parent] = child
        rank = {}
        run = 0
        while run is not None:
            rank[run] = len(rank)
            run = following.get(run)
        unreachable = len(rank)
        misses.sort(key=lambda miss: rank.get(miss[0], unreachable + miss[0]))
        sig = self.method.sig
        issues = []
        for run, var, role, stmt in misses:
            if var not in self.defs:
                issues.append(
                    "%s: %s %r used but never defined (stmt %r)"
                    % (sig, role, var, stmt)
                )
            elif run in rank:
                issues.append(
                    "%s: %s %r may be unassigned on some path (stmt %r)"
                    % (sig, role, var, stmt)
                )
        return issues


def _method_issues(program, method, by_name, arity, labels):
    """The issues of one method, from one walk of its body.

    Arity and loop-label issues go to the ``arity`` and ``labels`` side
    lists, which ``validate_program`` reports after every method's own.
    """
    issues = []
    initial = set()
    for param in method.params:
        if param in initial:
            issues.append("%s: duplicate parameter %r" % (method.sig, param))
        initial.add(param)
    if not method.is_static:
        if THIS_VAR in initial:
            issues.append(
                "%s: parameter %r shadows the receiver" % (method.sig, THIS_VAR)
            )
        initial.add(THIS_VAR)

    walker = _MethodWalk(program, method, by_name, arity, labels, initial)
    walker.walk(method.body, set(initial), 0, True)
    issues.extend(walker.def_use_issues())
    issues.extend(walker.stmt_issues)
    if walker.unsealed is not None:
        issues.append(
            "%s: unsealed statement %r" % (method.sig, walker.unsealed)
        )
    return issues


def _invoke_issues(program, method, stmt, by_name, issues, arity):
    """Check a call's target and its arity against every possible
    dispatch target (CHA-style); arity issues go to ``arity``."""
    if stmt.is_static:
        try:
            callee = program.method(
                "%s.%s" % (stmt.static_class, stmt.method_name)
            )
        except ResolutionError:
            issues.append(
                "%s: static call to unknown method %s.%s"
                % (method.sig, stmt.static_class, stmt.method_name)
            )
            return
        if not callee.is_static:
            issues.append(
                "%s: static call to instance method %s" % (method.sig, callee.sig)
            )
        targets = (callee,)
    else:
        targets = by_name.get(stmt.method_name, ())
        if not targets:
            arity.append(
                "%s: virtual call to %s with no target anywhere"
                % (method.sig, stmt.method_name)
            )
    for callee in targets:
        if len(callee.params) != len(stmt.args):
            arity.append(
                "%s: call to %s passes %d args, expected %d"
                % (method.sig, callee.sig, len(stmt.args), len(callee.params))
            )


def extends_cycles(superclass_of):
    """Every ``extends`` cycle in ``{class name: superclass name}``.

    Each cycle is the list of its classes in ``extends`` order, starting
    at its least name.  A superclass missing from the map (``None``, or
    an unknown class) ends a chain.  One iterative walk per class that
    stops at the first class an earlier walk visited: linear time, and
    no recursion however deep the hierarchy.
    """
    cycles = []
    walk_of = {}
    for walk, start in enumerate(superclass_of):
        path = []
        cur = start
        while cur in superclass_of and cur not in walk_of:
            walk_of[cur] = walk
            path.append(cur)
            cur = superclass_of[cur]
        if walk_of.get(cur) == walk:
            cycle = path[path.index(cur):]
            least = cycle.index(min(cycle))
            cycles.append(cycle[least:] + cycle[:least])
    return cycles


def cycle_issue(cycle):
    """The issue text naming the classes of one ``extends`` cycle."""
    return "extends cycle: %s" % " extends ".join(cycle + cycle[:1])


def validate_program(program):
    """Return a list of issues found in ``program`` (empty when valid)."""
    issues = []
    for decl in program.classes.values():
        if decl.superclass is not None and decl.superclass not in program.classes:
            issues.append(
                "class %s extends unknown class %s" % (decl.name, decl.superclass)
            )
    superclass_of = {
        name: decl.superclass for name, decl in program.classes.items()
    }
    issues.extend(cycle_issue(cycle) for cycle in extends_cycles(superclass_of))
    #: method name -> declarations of that name, in class order (the
    #: index ``ClassHierarchy.all_targets`` reads)
    by_name = {}
    for decl in program.classes.values():
        for name, method in decl.methods.items():
            by_name.setdefault(name, []).append(method)
    arity = []
    labels = []
    for method in program.all_methods():
        issues.extend(_method_issues(program, method, by_name, arity, labels))
    issues.extend(arity)
    issues.extend(labels)
    if program.entry:
        try:
            program.entry_method()
        except ResolutionError:
            issues.append("entry method %s does not resolve" % program.entry)
    return issues


def check(program):
    """Raise :class:`IRError` when ``program`` is malformed."""
    issues = validate_program(program)
    if issues:
        raise IRError("invalid program:\n  " + "\n  ".join(issues))
    return program
