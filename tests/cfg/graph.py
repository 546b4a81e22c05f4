"""Control-flow graphs built from the structured IR: a test oracle.

The analyses in :mod:`repro.core` work directly on the structured form
(as the paper's type system does).  This conventional basic-block CFG,
with dominance (:mod:`tests.cfg.dominance`) and natural-loop detection
(:mod:`tests.cfg.loops`) over it, mirrors how the Soot-based
implementation views method bodies.  The definite-assignment check of
:mod:`repro.ir.validate` and the loop nest of
:func:`repro.core.infer.classify.natural_loops` are each one structured
walk, and are compared with what this graph gives
(``tests/ir/definite_assignment_oracle.py``,
``tests/properties/test_loop_nest_differential.py``).
"""

from repro.ir.stmts import Block, IfStmt, LoopStmt, ReturnStmt


class BasicBlock:
    """A maximal straight-line sequence of simple statements."""

    __slots__ = ("index", "stmts", "succs", "preds", "loop_header_of", "terminator")

    def __init__(self, index):
        self.index = index
        self.stmts = []
        self.succs = []
        self.preds = []
        #: label of the LoopStmt this block is the header of, if any
        self.loop_header_of = None
        #: the IfStmt/LoopStmt whose condition is evaluated when control
        #: leaves this block (branch source / loop header), if any.  Only
        #: the definite-assignment oracle
        #: (tests/ir/definite_assignment_oracle.py) reads it now:
        #: validation checks conditions in its structured walk.
        self.terminator = None

    def __repr__(self):
        return "BB%d(%d stmts)" % (self.index, len(self.stmts))


class CFG:
    """A per-method control-flow graph with unique entry and exit blocks."""

    def __init__(self, method):
        self.method = method
        self.blocks = []
        self.entry = self._new_block()
        self.exit = self._new_block()
        tail = self._build_block(method.body, self.entry)
        self._link(tail, self.exit)

    # -- construction ------------------------------------------------------

    def _new_block(self):
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    @staticmethod
    def _link(src, dst):
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)

    def _build_block(self, stmt, current):
        """Append ``stmt`` to the CFG starting at ``current``; return the
        block where control continues afterwards."""
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                current = self._build_block(child, current)
            return current
        if isinstance(stmt, IfStmt):
            then_entry = self._new_block()
            else_entry = self._new_block()
            join = self._new_block()
            current.terminator = stmt
            self._link(current, then_entry)
            self._link(current, else_entry)
            then_exit = self._build_block(stmt.then_block, then_entry)
            else_exit = self._build_block(stmt.else_block, else_entry)
            self._link(then_exit, join)
            self._link(else_exit, join)
            return join
        if isinstance(stmt, LoopStmt):
            header = self._new_block()
            header.loop_header_of = stmt.label
            header.terminator = stmt
            body_entry = self._new_block()
            after = self._new_block()
            self._link(current, header)
            self._link(header, body_entry)
            self._link(header, after)
            body_exit = self._build_block(stmt.body, body_entry)
            self._link(body_exit, header)  # the back edge
            return after
        if isinstance(stmt, ReturnStmt):
            current.stmts.append(stmt)
            self._link(current, self.exit)
            # Statements after a return are unreachable; give them a
            # disconnected block so construction stays total.
            return self._new_block()
        current.stmts.append(stmt)
        return current

    # -- queries -----------------------------------------------------------

    def reachable_blocks(self):
        """Blocks reachable from the entry, in reverse post-order.

        The walk is depth first and takes each block's successors in
        ``succs`` order; the dominators read the order it gives, and
        validation reports def/use issues in it (emulated without a
        CFG, see :mod:`repro.ir.validate`).  It keeps its own stack of
        ``(block, successor iterator)`` pairs, so a method of any length
        fits: a chain of sequential ``if``s or loops is as deep as it is
        long.
        """
        seen = {self.entry.index}
        order = []
        stack = [(self.entry, iter(self.entry.succs))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if succ.index not in seen:
                    seen.add(succ.index)
                    stack.append((succ, iter(succ.succs)))
                    break
            else:
                stack.pop()
                order.append(block)
        order.reverse()
        return order

    def __repr__(self):
        return "CFG(%s, %d blocks)" % (self.method.sig, len(self.blocks))


def build_cfg(method):
    """Construct the CFG of ``method``."""
    return CFG(method)
