"""Structural validation of IR programs.

``validate_program`` returns a list of human-readable issues; ``check``
raises :class:`repro.errors.IRError` on the first issue.  Benchmarks and the
frontend run validation so that analysis failures are caught as malformed
input rather than deep inside a solver.

The def/use check is a definite-assignment analysis over the per-method
CFG (:mod:`repro.cfg.graph`): a variable use is clean only when every
path from the entry assigns it first, so an assignment on one branch
arm or inside a possibly zero-trip loop body does not excuse a use
after the join.
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
    """
    from repro.cfg.graph import build_cfg

    issues = []
    cfg = build_cfg(method)
    reachable = cfg.reachable_blocks()  # reverse post-order
    reachable_ids = {block.index for block in reachable}
    block_defs = {}
    for block in cfg.blocks:
        defs = set()
        for stmt in block.stmts:
            target = _stmt_def(stmt)
            if target:
                defs.add(target)
        block_defs[block.index] = defs

    # Must-analysis fixpoint: OUT starts at the universe (top) so loop
    # back-edges do not spuriously kill the entry path's assignments on
    # the first visit; iteration only shrinks the sets.
    universe = set(all_defs) | set(initial)
    out_sets = {block.index: set(universe) for block in reachable}

    def in_set(block):
        if block is cfg.entry:
            return set(initial)
        preds = [p for p in block.preds if p.index in reachable_ids]
        live = set(out_sets[preds[0].index])
        for pred in preds[1:]:
            live &= out_sets[pred.index]
        return live

    changed = True
    while changed:
        changed = False
        for block in reachable:
            new_out = in_set(block) | block_defs[block.index]
            if new_out != out_sets[block.index]:
                out_sets[block.index] = new_out
                changed = True

    def check_block(block, live):
        for stmt in block.stmts:
            for var, role in _stmt_uses(stmt):
                if var not in all_defs:
                    issues.append(
                        "%s: %s %r used but never defined (stmt %r)"
                        % (method.sig, role, var, stmt)
                    )
                elif live is not None and var not in live:
                    issues.append(
                        "%s: %s %r may be unassigned on some path (stmt %r)"
                        % (method.sig, role, var, stmt)
                    )
            target = _stmt_def(stmt)
            if target and live is not None:
                live.add(target)
        # The branch/loop condition is evaluated after the block's
        # straight-line statements, when control leaves the block.
        if block.terminator is not None:
            for var, role in _stmt_uses(block.terminator):
                if var not in all_defs:
                    issues.append(
                        "%s: %s %r used but never defined (stmt %r)"
                        % (method.sig, role, var, block.terminator)
                    )
                elif live is not None and var not in live:
                    issues.append(
                        "%s: %s %r may be unassigned on some path (stmt %r)"
                        % (method.sig, role, var, block.terminator)
                    )

    for block in reachable:
        check_block(block, in_set(block))
    for block in cfg.blocks:
        if block.index not in reachable_ids:
            check_block(block, None)
    return issues


def _method_issues(program, method):
    issues = []
    initial = set(method.params)
    if not method.is_static:
        initial.add(THIS_VAR)

    all_defs = set(initial)
    for stmt in method.statements():
        target = _stmt_def(stmt)
        if target:
            all_defs.add(target)

    issues.extend(_definite_assignment_issues(method, initial, all_defs))

    for stmt in method.statements():
        if isinstance(stmt, NewStmt):
            if stmt.type.class_name not in program.classes:
                issues.append(
                    "%s: allocation of unknown class %s"
                    % (method.sig, stmt.type.class_name)
                )
        elif isinstance(stmt, InvokeStmt) and stmt.is_static:
            try:
                callee = program.method(
                    "%s.%s" % (stmt.static_class, stmt.method_name)
                )
                if not callee.is_static:
                    issues.append(
                        "%s: static call to instance method %s"
                        % (method.sig, callee.sig)
                    )
            except ResolutionError:
                issues.append(
                    "%s: static call to unknown method %s.%s"
                    % (method.sig, stmt.static_class, stmt.method_name)
                )
    return issues


def _arity_issues(program):
    """Check call arity against every possible dispatch target (CHA-style)."""
    issues = []
    #: method name -> declarations of that name, in class order (the
    #: index ``ClassHierarchy.all_targets`` reads)
    by_name = {}
    for decl in program.classes.values():
        for name, method in decl.methods.items():
            by_name.setdefault(name, []).append(method)
    for method in program.all_methods():
        for stmt in method.statements():
            if not isinstance(stmt, InvokeStmt):
                continue
            if stmt.is_static:
                try:
                    callee = program.method(
                        "%s.%s" % (stmt.static_class, stmt.method_name)
                    )
                except ResolutionError:
                    continue  # reported by _method_issues
                targets = [callee]
            else:
                targets = by_name.get(stmt.method_name, ())
                if not targets:
                    issues.append(
                        "%s: virtual call to %s with no target anywhere"
                        % (method.sig, stmt.method_name)
                    )
            for callee in targets:
                if len(callee.params) != len(stmt.args):
                    issues.append(
                        "%s: call to %s passes %d args, expected %d"
                        % (method.sig, callee.sig, len(stmt.args), len(callee.params))
                    )
    return issues


def _loop_label_issues(program):
    issues = []
    seen = {}
    for method in program.all_methods():
        for stmt in method.statements():
            if isinstance(stmt, LoopStmt):
                key = (method.sig, stmt.label)
                if key in seen:
                    issues.append(
                        "%s: duplicate loop label %r" % (method.sig, stmt.label)
                    )
                seen[key] = stmt
    return issues


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
    for method in program.all_methods():
        issues.extend(_method_issues(program, method))
        for stmt in walk(method.body):
            if stmt.uid is None:
                issues.append("%s: unsealed statement %r" % (method.sig, stmt))
                break
    issues.extend(_arity_issues(program))
    issues.extend(_loop_label_issues(program))
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
