"""Dominator computation (Cooper–Harvey–Kennedy iterative algorithm),
for the natural-loop oracle of :mod:`tests.cfg.loops`."""


def immediate_dominators(cfg):
    """Map each reachable block to its immediate dominator.

    The entry block maps to itself, following the classic formulation.
    """
    rpo = cfg.reachable_blocks()
    order_index = {block.index: i for i, block in enumerate(rpo)}
    idom = {cfg.entry.index: cfg.entry}

    def intersect(b1, b2):
        while b1.index != b2.index:
            while order_index[b1.index] > order_index[b2.index]:
                b1 = idom[b1.index]
            while order_index[b2.index] > order_index[b1.index]:
                b2 = idom[b2.index]
        return b1

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is cfg.entry:
                continue
            processed_preds = [
                p for p in block.preds if p.index in idom and p.index in order_index
            ]
            if not processed_preds:
                continue
            new_idom = processed_preds[0]
            for pred in processed_preds[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(block.index) is not new_idom:
                idom[block.index] = new_idom
                changed = True
    return idom


def dominator_intervals(cfg):
    """Map each reachable block's index to its ``(pre, post)`` numbers
    in one depth-first walk of the dominator tree.

    Block ``a`` dominates block ``b`` exactly when ``a``'s interval
    holds ``b``'s: ``pre_a <= pre_b`` and ``post_b <= post_a``.  One
    walk per CFG answers every such query in constant time, where
    walking up the idom chain costs the depth of the tree per query.
    The walk keeps its own stack, so a tree as deep as a long method
    fits.
    """
    idom = immediate_dominators(cfg)
    children = {}
    for index, parent in idom.items():
        if parent.index != index:
            children.setdefault(parent.index, []).append(index)
    intervals = {}
    pre = {}
    clock = 0
    stack = [cfg.entry.index]
    while stack:
        index = stack.pop()
        if index < 0:  # every child of ~index is numbered
            intervals[~index] = (pre.pop(~index), clock)
        else:
            pre[index] = clock
            stack.append(~index)
            stack.extend(children.get(index, ()))
        clock += 1
    return intervals
