"""Tests for call-string contexts."""

from repro.pta.context import EMPTY, CallString


class TestCallString:
    def test_empty(self):
        assert EMPTY.depth == 0
        assert EMPTY.top() is None
        assert str(EMPTY) == "<in loop>"

    def test_push(self):
        ctx = EMPTY.push("c1").push("c2")
        assert ctx.sites == ("c1", "c2")
        assert ctx.depth == 2

    def test_push_immutably(self):
        base = EMPTY.push("c1")
        base.push("c2")
        assert base.sites == ("c1",)

    def test_top_is_outermost_call(self):
        ctx = EMPTY.push("top").push("inner")
        assert ctx.top() == "top"

    def test_k_bounding(self):
        ctx = CallString(k=2)
        for i in range(5):
            ctx = ctx.push("c%d" % i)
        assert ctx.depth == 2
        assert ctx.sites == ("c3", "c4")

    def test_equality_and_hash(self):
        assert EMPTY.push("a") == CallString(("a",))
        assert hash(EMPTY.push("a")) == hash(CallString(("a",)))
        assert EMPTY.push("a") != EMPTY.push("b")

    def test_str_joins_chain(self):
        assert str(EMPTY.push("a").push("b")) == "a > b"
