"""Cleanup optimizer passes over the structured IR.

Frontends (and the bytecode loader, and machine-generated benchmarks)
produce chains of reference copies and write-only temporaries.  Two
classic passes tidy them up without changing behaviour:

* :func:`propagate_copies` — within straight-line runs, replace uses of a
  variable that currently holds a copy with the original.  Control-flow
  constructs act as conservative barriers: branches inherit the incoming
  copy environment, loop bodies start empty (a copy valid on first entry
  may be stale on later iterations), and everything is invalidated after
  the construct.
* :func:`eliminate_dead_copies` — delete pure copies (``x = y``,
  ``x = null``) whose target is never used anywhere in the method, and
  self-copies.  Allocations are never deleted (they create objects and
  allocation sites), nor are heap accesses or calls (side effects).

Both passes preserve the concrete semantics exactly and leave every
analysis result unchanged — properties the test suite checks by running
the interpreter and the leak detector before and after.
"""

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
    simple_statements,
    walk,
)


def _resolve(env, var):
    return env.get(var, var)


def _kill(env, var):
    """Variable redefined: drop it as a key and as anyone's source."""
    env.pop(var, None)
    for key in [k for k, v in env.items() if v == var]:
        env.pop(key)


def _rewrite_uses(stmt, env):
    """Replace used variables per ``env``; returns possibly-new cond."""
    if isinstance(stmt, CopyStmt):
        stmt.source = _resolve(env, stmt.source)
    elif isinstance(stmt, LoadStmt):
        stmt.base = _resolve(env, stmt.base)
    elif isinstance(stmt, StoreStmt):
        stmt.base = _resolve(env, stmt.base)
        stmt.source = _resolve(env, stmt.source)
    elif isinstance(stmt, StoreNullStmt):
        stmt.base = _resolve(env, stmt.base)
    elif isinstance(stmt, InvokeStmt):
        if stmt.base is not None:
            stmt.base = _resolve(env, stmt.base)
        stmt.args = [_resolve(env, a) for a in stmt.args]
    elif isinstance(stmt, ReturnStmt):
        if stmt.value:
            stmt.value = _resolve(env, stmt.value)


def _propagate_block(block, env):
    for stmt in block.stmts:
        if isinstance(stmt, IfStmt):
            if stmt.cond.var:
                stmt.cond = Cond(stmt.cond.kind, _resolve(env, stmt.cond.var))
            _propagate_block(stmt.then_block, dict(env))
            _propagate_block(stmt.else_block, dict(env))
            env.clear()  # branches may have redefined anything
            continue
        if isinstance(stmt, LoopStmt):
            if stmt.cond.var:
                stmt.cond = Cond(stmt.cond.kind, _resolve(env, stmt.cond.var))
            _propagate_block(stmt.body, {})  # stale across iterations
            env.clear()
            continue
        _rewrite_uses(stmt, env)
        if isinstance(stmt, CopyStmt):
            _kill(env, stmt.target)
            if stmt.source != stmt.target:
                env[stmt.target] = stmt.source
        elif isinstance(stmt, (NewStmt, NullStmt, LoadStmt)):
            _kill(env, stmt.target)
        elif isinstance(stmt, InvokeStmt) and stmt.target:
            _kill(env, stmt.target)


def propagate_copies(method):
    """Run copy propagation over ``method`` (in place); returns it."""
    _propagate_block(method.body, {})
    return method


def _used_variables(method):
    used = set()
    for stmt in walk(method.body):
        if isinstance(stmt, CopyStmt):
            used.add(stmt.source)
        elif isinstance(stmt, LoadStmt):
            used.add(stmt.base)
        elif isinstance(stmt, StoreStmt):
            used.update((stmt.base, stmt.source))
        elif isinstance(stmt, StoreNullStmt):
            used.add(stmt.base)
        elif isinstance(stmt, InvokeStmt):
            used.update(stmt.args)
            if stmt.base:
                used.add(stmt.base)
        elif isinstance(stmt, ReturnStmt) and stmt.value:
            used.add(stmt.value)
        elif isinstance(stmt, (IfStmt, LoopStmt)) and stmt.cond.var:
            used.add(stmt.cond.var)
    return used


def _is_dead_copy(stmt, used):
    if isinstance(stmt, CopyStmt):
        return stmt.target == stmt.source or stmt.target not in used
    if isinstance(stmt, NullStmt):
        return stmt.target not in used
    return False


def _sweep_block(block, used):
    removed = 0
    kept = []
    for stmt in block.stmts:
        if isinstance(stmt, (IfStmt, LoopStmt)):
            for child in stmt.children():
                removed += _sweep_block(child, used)
            kept.append(stmt)
        elif _is_dead_copy(stmt, used):
            removed += 1
        else:
            kept.append(stmt)
    block.stmts[:] = kept
    return removed


def eliminate_dead_copies(method):
    """Remove write-only pure copies (in place); returns removal count.

    Iterates: removing one dead copy can render its source write-only.
    The method's recorded simple statements (``Method.simple``) are
    recorded again without the deleted ones.
    """
    total = 0
    while True:
        used = _used_variables(method)
        removed = _sweep_block(method.body, used)
        total += removed
        if not removed:
            if total:
                method.simple = tuple(simple_statements(method.body))
            return total


def optimize_program(program):
    """Apply both passes to every method; returns per-pass statistics."""
    stats = {"copies_propagated_methods": 0, "dead_copies_removed": 0}
    for method in program.all_methods():
        propagate_copies(method)
        stats["copies_propagated_methods"] += 1
        stats["dead_copies_removed"] += eliminate_dead_copies(method)
    return stats
