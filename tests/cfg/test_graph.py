"""Tests for CFG construction."""

from repro.lang import parse_program

from tests.cfg.graph import build_cfg


def _cfg(body, sig="A.m", params="p"):
    prog = parse_program(
        "class A { field f; method m(%s) { %s } }" % (params, body), validate=False
    )
    return build_cfg(prog.method(sig))


class TestStraightLine:
    def test_single_block(self):
        cfg = _cfg("x = p; y = x;")
        reachable = cfg.reachable_blocks()
        body_blocks = [b for b in reachable if b.stmts]
        assert len(body_blocks) == 1
        assert len(body_blocks[0].stmts) == 2

    def test_entry_reaches_exit(self):
        cfg = _cfg("x = p;")
        assert cfg.exit in cfg.reachable_blocks()

    def test_empty_method(self):
        cfg = _cfg("")
        assert cfg.exit in cfg.reachable_blocks()


class TestBranches:
    def test_if_splits_and_joins(self):
        cfg = _cfg("if (*) { x = p; } else { y = p; } z = p;")
        branch_sources = [b for b in cfg.blocks if len(b.succs) == 2]
        assert branch_sources
        joins = [b for b in cfg.blocks if len(b.preds) == 2]
        assert joins

    def test_return_connects_to_exit(self):
        cfg = _cfg("if (*) { return; } x = p;")
        ret_blocks = [
            b for b in cfg.blocks if any(type(s).__name__ == "ReturnStmt" for s in b.stmts)
        ]
        assert ret_blocks
        assert cfg.exit in ret_blocks[0].succs

    def test_code_after_return_unreachable(self):
        cfg = _cfg("return; x = p;")
        reachable_stmts = [s for b in cfg.reachable_blocks() for s in b.stmts]
        assert all(type(s).__name__ != "CopyStmt" for s in reachable_stmts)


class TestLoops:
    def test_loop_has_back_edge(self):
        cfg = _cfg("loop L (*) { x = p; }")
        headers = [b for b in cfg.blocks if b.loop_header_of == "L"]
        assert len(headers) == 1
        header = headers[0]
        # some reachable block has an edge back to the header
        assert any(header in b.succs for b in cfg.blocks if b is not header)

    def test_loop_exit_edge(self):
        cfg = _cfg("loop L (*) { x = p; } y = p;")
        header = next(b for b in cfg.blocks if b.loop_header_of == "L")
        assert len(header.succs) == 2

    def test_nested_loop_headers(self):
        cfg = _cfg("loop A1 (*) { loop B1 (*) { x = p; } }")
        labels = {b.loop_header_of for b in cfg.blocks if b.loop_header_of}
        assert labels == {"A1", "B1"}

    def test_reverse_post_order_starts_at_entry(self):
        cfg = _cfg("loop L (*) { x = p; }")
        assert cfg.reachable_blocks()[0] is cfg.entry


class TestTerminators:
    def test_branch_source_carries_if_stmt(self):
        from repro.ir.stmts import IfStmt

        cfg = _cfg("x = p; if (nonnull x) { y = p; } else { } z = p;")
        sources = [b for b in cfg.blocks if b.terminator is not None]
        assert len(sources) == 1
        assert isinstance(sources[0].terminator, IfStmt)
        assert len(sources[0].succs) == 2

    def test_loop_header_carries_loop_stmt(self):
        from repro.ir.stmts import LoopStmt

        cfg = _cfg("loop L (nonnull p) { x = p; }")
        headers = [b for b in cfg.blocks if b.loop_header_of == "L"]
        assert len(headers) == 1
        assert isinstance(headers[0].terminator, LoopStmt)
        assert headers[0].terminator.label == "L"

    def test_straight_line_has_no_terminators(self):
        cfg = _cfg("x = p; y = x;")
        assert all(b.terminator is None for b in cfg.blocks)

    def test_nested_structures_each_get_one(self):
        cfg = _cfg(
            "loop L (*) { if (*) { x = p; } else { y = p; } }"
        )
        terminated = [b for b in cfg.blocks if b.terminator is not None]
        assert len(terminated) == 2
