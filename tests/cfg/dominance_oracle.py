"""Dominance by walking the idom chain: the oracle of the dominator-tree
numbering.

``tests.cfg.dominance.dominator_intervals`` numbers the dominator tree
once per CFG, and ``find_loops`` reads each back edge from those
numbers.  The walk below answers one query at a time by climbing from
``b`` towards the entry, which costs the depth of the tree per query;
``tests/cfg/test_dominance.py`` checks that both agree on every pair of
reachable blocks.
"""


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


def dominator_chain(idom, b):
    """The indices of the blocks that dominate ``b``: the blocks the walk
    of :func:`dominates` passes, from ``b`` up to the entry."""
    chain = []
    cur = b
    while True:
        chain.append(cur.index)
        parent = idom.get(cur.index)
        if parent is None or parent.index == cur.index:
            return chain
        cur = parent
