"""Tests for natural-loop detection."""

from repro.lang import parse_program

from tests.cfg.graph import build_cfg
from tests.cfg.loops import find_loops, loop_nest_depths


def _loops(body):
    prog = parse_program(
        "class A { method m(p) { %s } }" % body, validate=False
    )
    return find_loops(build_cfg(prog.method("A.m")))


class TestFindLoops:
    def test_no_loops(self):
        assert _loops("x = p;") == []

    def test_single_loop_detected_with_label(self):
        loops = _loops("loop L1 (*) { x = p; }")
        assert len(loops) == 1
        assert loops[0].label == "L1"

    def test_nested_loops_detected(self):
        loops = _loops("loop OUT (*) { loop IN (*) { x = p; } }")
        assert {lp.label for lp in loops} == {"OUT", "IN"}

    def test_inner_loop_blocks_subset_of_outer(self):
        loops = _loops("loop OUT (*) { loop IN (*) { x = p; } }")
        by_label = {lp.label: lp for lp in loops}
        inner_ids = {b.index for b in by_label["IN"].blocks}
        outer_ids = {b.index for b in by_label["OUT"].blocks}
        assert inner_ids <= outer_ids

    def test_sequential_loops_distinct(self):
        loops = _loops("loop A1 (*) { x = p; } loop B1 (*) { y = p; }")
        assert len(loops) == 2
        by_label = {lp.label: lp for lp in loops}
        a_ids = {b.index for b in by_label["A1"].blocks}
        b_ids = {b.index for b in by_label["B1"].blocks}
        assert not (a_ids & b_ids)

    def test_loop_statements_found(self):
        loops = _loops("loop L (*) { x = p; y = x; }")
        stmts = list(loops[0].statements())
        assert len(stmts) == 2

    def test_nest_depths(self):
        loops = _loops("loop OUT (*) { loop IN (*) { x = p; } }")
        depths = loop_nest_depths(loops)
        by_label = {lp.label: lp for lp in loops}
        assert depths[by_label["OUT"].header.index] == 1
        assert depths[by_label["IN"].header.index] == 2

    def test_figure1_loops(self, figure1):
        cfg = build_cfg(figure1.method("Main.main"))
        loops = find_loops(cfg)
        assert [lp.label for lp in loops] == ["L1"]
