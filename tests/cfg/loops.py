"""Natural-loop detection over CFGs: the oracle of region inference's
loop nest.

Loops are found via back edges (edges whose target dominates their source),
the standard construction; dominance is read from the pre/post numbers of
one walk of the dominator tree.  For CFGs built from the structured IR, each
detected natural loop corresponds to one :class:`repro.ir.LoopStmt`, and
``find_loops`` carries that label through — the test suite checks this
correspondence.  :func:`repro.core.infer.classify.natural_loops` reads the
same depths and block counts from the structured body;
``tests/properties/test_loop_nest_differential.py`` compares the two.
"""

from tests.cfg.dominance import dominator_intervals


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
    intervals = dominator_intervals(cfg)  # exactly the reachable blocks
    per_header = {}
    for block in cfg.blocks:
        if block.index not in intervals:
            continue
        pre, post = intervals[block.index]
        for succ in block.succs:
            dominator = intervals.get(succ.index)
            if (
                dominator is not None
                and dominator[0] <= pre
                and post <= dominator[1]
            ):
                header, body = per_header.setdefault(succ.index, (succ, {}))
                body.update(_natural_loop_blocks(succ, block))
    loops = [
        NaturalLoop(header, list(body.values()), header.loop_header_of)
        for header, body in per_header.values()
    ]
    return sorted(loops, key=lambda lp: lp.depth_key)


def loop_nest_depths(loops):
    """Map loop header index -> nesting depth (1 = outermost).

    A loop's depth is one more than that of the innermost loop holding
    its header.  Natural loops of distinct headers nest or are disjoint,
    and an enclosing loop has more blocks, so taking the loops largest
    first and marking each block with the last loop that holds it finds
    that innermost loop in one lookup.
    """
    depths = {}
    innermost = {}  # block index -> innermost loop marked so far
    for loop in sorted(loops, key=lambda lp: lp.depth_key, reverse=True):
        outer = innermost.get(loop.header.index)
        depth = 1 if outer is None else depths[outer.header.index] + 1
        depths[loop.header.index] = depth
        for index in loop.block_indices:
            innermost[index] = loop
    return depths
