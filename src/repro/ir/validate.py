"""Structural validation of IR programs.

``validate_program`` returns a list of human-readable issues; ``check``
raises :class:`repro.errors.IRError` on the first issue.  Benchmarks and the
frontend run validation so that analysis failures are caught as malformed
input rather than deep inside a solver.

Each method body is walked once; the def/use check is a
definite-assignment analysis over the per-method CFG
(:mod:`repro.cfg.graph`): a variable use is clean only when every path
from the entry assigns it first, so an assignment on one branch arm or
inside a possibly zero-trip loop body does not excuse a use after the
join.
"""

from repro.errors import IRError, ResolutionError
from repro.ir.stmts import (
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
    walk,
)


def _stmt_def(stmt):
    """The variable ``stmt`` assigns, or ``None``."""
    if isinstance(stmt, (NewStmt, CopyStmt, NullStmt, LoadStmt)):
        return stmt.target
    if isinstance(stmt, InvokeStmt) and stmt.target:
        return stmt.target
    return None


def _stmt_uses(stmt):
    """Yield ``(var, role)`` for every variable ``stmt`` reads."""
    if isinstance(stmt, CopyStmt):
        yield stmt.source, "source"
    elif isinstance(stmt, LoadStmt):
        yield stmt.base, "base"
    elif isinstance(stmt, StoreStmt):
        yield stmt.base, "base"
        yield stmt.source, "source"
    elif isinstance(stmt, StoreNullStmt):
        yield stmt.base, "base"
    elif isinstance(stmt, InvokeStmt):
        for arg in stmt.args:
            yield arg, "argument"
        if not stmt.is_static:
            yield stmt.base, "receiver"
    elif isinstance(stmt, ReturnStmt):
        if stmt.value:
            yield stmt.value, "return value"
    elif isinstance(stmt, (IfStmt, LoopStmt)):
        if stmt.cond.kind != Cond.NONDET:
            yield stmt.cond.var, "condition variable"


def _check_block(method, block, live, all_defs, issues):
    """Check the uses in one CFG block against ``live``, the variables
    surely assigned on entry (``None`` in unreachable code, where any
    assignment in the method will do); ``live`` grows into the block's
    OUT set.  The branch/loop condition is evaluated after the block's
    straight-line statements, when control leaves the block."""
    known = all_defs if live is None else live  # live <= all_defs
    stmts = block.stmts
    if block.terminator is not None:
        stmts = stmts + [block.terminator]
    for stmt in stmts:
        for var, role in _stmt_uses(stmt):
            if var in known:
                continue
            if var not in all_defs:
                issues.append(
                    "%s: %s %r used but never defined (stmt %r)"
                    % (method.sig, role, var, stmt)
                )
            else:
                issues.append(
                    "%s: %s %r may be unassigned on some path (stmt %r)"
                    % (method.sig, role, var, stmt)
                )
        target = _stmt_def(stmt)
        if target and live is not None:
            live.add(target)


def _definite_assignment_issues(method, initial, all_defs):
    """Definite-assignment (must-reach) def/use check over the CFG.

    A use is clean only when every path from the method entry assigns
    the variable first: IN[b] is the *intersection* of the predecessors'
    OUT sets, so an assignment on one arm of a branch, or inside a
    (possibly zero-trip) loop body, does not count after the join.
    Branch/loop conditions are checked at the block whose terminator
    evaluates them.  Statements in unreachable blocks (e.g. after a
    ``return``) keep the flow-insensitive check: a variable merely has
    to be assigned *somewhere* in the method.

    One forward pass in reverse post-order suffices.  There every
    predecessor of a block comes first except a loop's back edge, and
    the loop header dominates the back edge's source, so everything
    live at the header is still live there: a loop body only adds to
    what reaches its header.  Intersecting the OUT sets of the
    predecessors already visited is therefore the greatest fixed point
    that iterating from the universe set would reach.
    """
    from repro.cfg.graph import build_cfg

    issues = []
    cfg = build_cfg(method)
    out_sets = {}
    for block in cfg.reachable_blocks():
        if block is cfg.entry:
            live = set(initial)
        else:
            live = None
            for pred in block.preds:
                out = out_sets.get(pred.index)
                if out is None:
                    continue  # a back edge, or an unreachable block
                live = set(out) if live is None else live & out
        _check_block(method, block, live, all_defs, issues)
        out_sets[block.index] = live
    for block in cfg.blocks:
        if block.index not in out_sets:
            _check_block(method, block, None, all_defs, issues)
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

    all_defs = set(initial)
    stmt_issues = []
    unsealed = None
    seen_labels = set()
    for stmt in walk(method.body):
        if stmt.uid is None and unsealed is None:
            unsealed = stmt
        target = _stmt_def(stmt)
        if target:
            all_defs.add(target)
        if isinstance(stmt, NewStmt):
            if stmt.type.class_name not in program.classes:
                stmt_issues.append(
                    "%s: allocation of unknown class %s"
                    % (method.sig, stmt.type.class_name)
                )
        elif isinstance(stmt, InvokeStmt):
            _invoke_issues(program, method, stmt, by_name, stmt_issues, arity)
        elif isinstance(stmt, LoopStmt):
            if stmt.label in seen_labels:
                labels.append(
                    "%s: duplicate loop label %r" % (method.sig, stmt.label)
                )
            seen_labels.add(stmt.label)

    issues.extend(_definite_assignment_issues(method, initial, all_defs))
    issues.extend(stmt_issues)
    if unsealed is not None:
        issues.append("%s: unsealed statement %r" % (method.sig, unsealed))
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
