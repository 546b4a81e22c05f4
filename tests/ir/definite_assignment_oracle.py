"""Fixpoint definite-assignment check: the differential oracle of the
single-pass one.

It builds the method's CFG and iterates the must-reach equations to a
fixed point, starting every block's OUT set at the universe of the
method's variables.  The production check,
``repro.ir.validate._definite_assignment_issues``, makes one forward
pass in reverse post-order instead;
``tests/properties/test_frontend_differential.py`` checks that both
report the same issues, in the same order.
"""

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
)


def definite_assignment_issues(method):
    """The def/use issues of ``method``, in the order validation reports
    them."""
    initial = set(method.params)
    if not method.is_static:
        initial.add(THIS_VAR)
    all_defs = set(initial)
    for stmt in method.statements():
        target = _stmt_def(stmt)
        if target:
            all_defs.add(target)
    return _fixpoint_issues(method, initial, all_defs)


def program_issues(program):
    """Every method's def/use issues, in ``program.all_methods()`` order."""
    return [
        issue
        for method in program.all_methods()
        for issue in definite_assignment_issues(method)
    ]


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


def _fixpoint_issues(method, initial, all_defs):
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
