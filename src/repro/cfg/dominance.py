"""Dominator computation (Cooper–Harvey–Kennedy iterative algorithm)."""


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


def dominates(idom, a, b):
    """True when block ``a`` dominates block ``b`` under ``idom``."""
    cur = b
    while True:
        if cur.index == a.index:
            return True
        parent = idom.get(cur.index)
        if parent is None or parent.index == cur.index:
            return cur.index == a.index
        cur = parent

