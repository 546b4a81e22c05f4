"""Tests for dominator computation."""

from repro.cfg.dominance import dominates, immediate_dominators
from repro.cfg.graph import build_cfg
from repro.lang import parse_program


def _cfg(body):
    prog = parse_program(
        "class A { method m(p) { %s } }" % body, validate=False
    )
    return build_cfg(prog.method("A.m"))


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = _cfg("if (*) { x = p; } else { y = p; } z = p;")
        idom = immediate_dominators(cfg)
        for block in cfg.reachable_blocks():
            assert dominates(idom, cfg.entry, block)

    def test_entry_self_dominator(self):
        cfg = _cfg("x = p;")
        idom = immediate_dominators(cfg)
        assert idom[cfg.entry.index] is cfg.entry

    def test_branch_blocks_do_not_dominate_join(self):
        cfg = _cfg("if (*) { x = p; } else { y = p; } z = p;")
        idom = immediate_dominators(cfg)
        then_block = next(
            b
            for b in cfg.reachable_blocks()
            if any(type(s).__name__ == "CopyStmt" and s.target == "x" for s in b.stmts)
        )
        join = next(
            b
            for b in cfg.reachable_blocks()
            if any(getattr(s, "target", None) == "z" for s in b.stmts)
        )
        assert not dominates(idom, then_block, join)

    def test_loop_header_dominates_body(self):
        cfg = _cfg("loop L (*) { x = p; }")
        idom = immediate_dominators(cfg)
        header = next(b for b in cfg.blocks if b.loop_header_of == "L")
        body = next(
            b for b in cfg.reachable_blocks() if any(s.is_simple for s in b.stmts)
        )
        assert dominates(idom, header, body)

    def test_dominance_reflexive(self):
        cfg = _cfg("x = p;")
        idom = immediate_dominators(cfg)
        for block in cfg.reachable_blocks():
            assert dominates(idom, block, block)
