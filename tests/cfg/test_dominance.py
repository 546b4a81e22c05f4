"""Tests for dominator computation, and the dominator-tree numbering
against the idom-chain walk of :mod:`tests.cfg.dominance_oracle`."""

import pytest

from repro.bench.apps import build_app, corpus_names
from repro.lang import parse_program

from tests.cfg.dominance import dominator_intervals, immediate_dominators
from tests.cfg.dominance_oracle import dominates, dominator_chain
from tests.cfg.graph import build_cfg
from tests.conftest import sequential_source


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


def _numbered_dominates(intervals, a, b):
    pre_a, post_a = intervals[a.index]
    pre_b, post_b = intervals[b.index]
    return pre_a <= pre_b and post_b <= post_a


class TestDominatorIntervals:
    """``dominator_intervals`` answers what the idom-chain walk answers,
    for every pair of reachable blocks."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_every_pair_of_every_corpus_method(self, name):
        program = build_app(name).program
        pairs = 0
        for method in program.all_methods():
            cfg = build_cfg(method)
            idom = immediate_dominators(cfg)
            intervals = dominator_intervals(cfg)
            reachable = cfg.reachable_blocks()
            assert sorted(intervals) == sorted(b.index for b in reachable)
            for b in reachable:
                chain = dominator_chain(idom, b)
                for a in reachable:
                    expected = dominates(idom, a, b)
                    assert (a.index in chain) == expected
                    assert _numbered_dominates(intervals, a, b) == expected, (
                        method.sig,
                        a,
                        b,
                    )
                    pairs += 1
        assert pairs

    def test_every_pair_of_a_600_loop_method(self):
        program = parse_program(sequential_source(loops=600))
        cfg = build_cfg(program.method("Main.main"))
        idom = immediate_dominators(cfg)
        intervals = dominator_intervals(cfg)
        reachable = cfg.reachable_blocks()
        assert len(reachable) > 1800
        numbers = [(b.index,) + intervals[b.index] for b in reachable]
        for b in reachable:
            # The row of b: one walk of its idom chain gives every a for
            # which the oracle's dominates(idom, a, b) holds (the corpus
            # test ties the two), where a call per pair would climb the
            # 1,200-deep chain 3.2M times.
            pre_b, post_b = intervals[b.index]
            numbered = [
                index
                for index, pre, post in numbers
                if pre <= pre_b and post_b <= post
            ]
            assert sorted(numbered) == sorted(dominator_chain(idom, b)), b

    def test_unreachable_blocks_are_not_numbered(self):
        cfg = _cfg("return; x = p;")
        intervals = dominator_intervals(cfg)
        reachable = {b.index for b in cfg.reachable_blocks()}
        assert set(intervals) == reachable
        assert len(cfg.blocks) > len(reachable)
