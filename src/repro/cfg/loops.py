"""Natural-loop detection over CFGs.

Loops are found via back edges (edges whose target dominates their source),
the standard construction.  For CFGs built from the structured IR, each
detected natural loop corresponds to one :class:`repro.ir.LoopStmt`, and
``find_loops`` carries that label through — the test suite checks this
correspondence.  Loop detection gives LeakChecker users a catalog of
candidate loops to select for checking.
"""

from repro.cfg.dominance import dominates, immediate_dominators


class NaturalLoop:
    """A natural loop: header block, body block set, and an optional label
    recovered from the structured IR."""

    __slots__ = ("header", "blocks", "label", "block_indices")

    def __init__(self, header, blocks, label):
        self.header = header
        self.blocks = blocks
        self.label = label
        self.block_indices = frozenset(b.index for b in blocks)

    @property
    def depth_key(self):
        return len(self.blocks)

    def contains_block(self, block):
        return block.index in self.block_indices

    def statements(self):
        for block in self.blocks:
            yield from block.stmts

    def __repr__(self):
        return "NaturalLoop(header=BB%d, %d blocks, label=%r)" % (
            self.header.index,
            len(self.blocks),
            self.label,
        )


def _natural_loop_blocks(header, latch):
    """Blocks of the natural loop of back edge ``latch -> header``, by
    index."""
    body = {header.index: header, latch.index: latch}
    stack = [latch]
    while stack:
        block = stack.pop()
        if block is header:
            continue
        for pred in block.preds:
            if pred.index not in body:
                body[pred.index] = pred
                stack.append(pred)
    return body


def find_loops(cfg):
    """All natural loops of ``cfg``, merged per header, outermost last."""
    idom = immediate_dominators(cfg)
    reachable = {b.index for b in cfg.reachable_blocks()}
    per_header = {}
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for succ in block.succs:
            if succ.index in reachable and dominates(idom, succ, block):
                header, body = per_header.setdefault(succ.index, (succ, {}))
                body.update(_natural_loop_blocks(succ, block))
    loops = [
        NaturalLoop(header, list(body.values()), header.loop_header_of)
        for header, body in per_header.values()
    ]
    return sorted(loops, key=lambda lp: lp.depth_key)


def loop_nest_depths(loops):
    """Map loop header index -> nesting depth (1 = outermost)."""
    depths = {}
    for loop in loops:
        depth = 1
        for other in loops:
            if other is loop:
                continue
            if loop.header.index != other.header.index and other.contains_block(
                loop.header
            ):
                depth += 1
        depths[loop.header.index] = depth
    return depths
