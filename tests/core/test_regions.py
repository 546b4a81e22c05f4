"""Tests for checkable region specifications."""

import pytest

from repro.core.regions import (
    RegionSpec,
    candidate_loops,
    resolve_region,
)
from repro.errors import ResolutionError
from repro.ir.stmts import InvokeStmt, NewStmt


class TestLoopRegion:
    def test_body_statements_scoped_to_loop(self, figure1):
        spec = RegionSpec("Main.main", "L1")
        stmts = spec.body_statements(figure1)
        sites = {s.site for s in stmts if isinstance(s, NewStmt)}
        assert sites == {"a5"}  # a2 is before the loop

    def test_inside_new_stmts(self, figure1):
        spec = RegionSpec("Main.main", "L1")
        assert [s.site for s in spec.inside_new_stmts(figure1)] == ["a5"]

    def test_inside_call_stmts(self, figure1):
        spec = RegionSpec("Main.main", "L1")
        callsites = {s.callsite for s in spec.inside_call_stmts(figure1)}
        assert callsites == {"cd", "cp"}

    def test_describe(self):
        assert "L1" in RegionSpec("Main.main", "L1").describe()

    def test_missing_loop(self, figure1):
        with pytest.raises(ResolutionError):
            RegionSpec("Main.main", "NOPE").loop(figure1)


class TestMethodRegion:
    def test_whole_method_is_the_region(self, figure1):
        spec = RegionSpec("Transaction.txInit")
        sites = {s.site for s in spec.inside_new_stmts(figure1)}
        assert sites == {"a10", "a13"}

    def test_describe_mentions_artificial_loop(self):
        assert "artificial" in RegionSpec("A.m").describe()

    def test_missing_method(self, figure1):
        with pytest.raises(ResolutionError):
            RegionSpec("Ghost.m").method(figure1)


class TestParse:
    def test_loop_form(self):
        spec = RegionSpec.parse("Main.main:L1")
        assert spec.method_sig == "Main.main"
        assert spec.loop_label == "L1"
        assert spec.is_loop

    def test_method_form(self):
        spec = RegionSpec.parse("Transaction.process")
        assert spec.method_sig == "Transaction.process"
        assert spec.loop_label is None
        assert not spec.is_loop

    def test_text_round_trips(self):
        for text in ("Main.main:L1", "Transaction.process"):
            assert RegionSpec.parse(text).text() == text

    @pytest.mark.parametrize(
        "bad", ["", ":", "NoDotMethod", "A.m:", ":L1", "A.m:L:1", "A.m "]
    )
    def test_malformed(self, bad):
        with pytest.raises(ResolutionError):
            RegionSpec.parse(bad)

    def test_equality_and_hash(self):
        assert RegionSpec.parse("A.m:L") == RegionSpec("A.m", "L")
        assert RegionSpec.parse("A.m") == RegionSpec("A.m")
        assert RegionSpec("A.m", "L") != RegionSpec("A.m")
        assert len({RegionSpec("A.m", "L"), RegionSpec("A.m", "L")}) == 1


class TestResolveRegion:
    def test_loop_syntax(self, figure1):
        region = resolve_region(figure1, "Main.main:L1")
        assert isinstance(region, RegionSpec)
        assert region.loop_label == "L1"

    def test_region_syntax(self, figure1):
        region = resolve_region(figure1, "Transaction.process")
        assert isinstance(region, RegionSpec)
        assert not region.is_loop

    def test_bad_method(self, figure1):
        with pytest.raises(ResolutionError):
            resolve_region(figure1, "Ghost.m")

    def test_bad_loop(self, figure1):
        with pytest.raises(ResolutionError):
            resolve_region(figure1, "Main.main:NOPE")

    def test_error_shows_canonical_forms(self, figure1):
        with pytest.raises(ResolutionError) as err:
            resolve_region(figure1, "not a region")
        message = str(err.value)
        assert "Class.method:LABEL" in message
        assert "Class.method" in message


class TestCandidateLoops:
    def test_all_loops_listed(self, figure1):
        specs = candidate_loops(figure1)
        labels = {(s.method_sig, s.loop_label) for s in specs}
        assert labels == {("Main.main", "L1"), ("Transaction.txInit", "LC")}

    def test_no_loops_yields_empty(self):
        from repro.lang import parse_program

        prog = parse_program("entry A.m;\nclass A { static method m() { } }")
        assert candidate_loops(prog) == []
