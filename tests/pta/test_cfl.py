"""Tests for the demand-driven CFL-reachability points-to solver."""

import pytest

from repro.callgraph.rta import build_rta
from repro.errors import BudgetExhausted
from repro.lang import parse_program
from repro.pta.cfl import CFLPointsTo
from repro.pta.pag import PAG, VarNode

from tests.pta.andersen_oracle import analyze


def _setup(source):
    prog = parse_program(source)
    graph = build_rta(prog)
    pag = PAG(prog, graph)
    return prog, pag, CFLPointsTo(pag)


_FACTORY = """
entry M.main;
class M {
  static method main() {
    a = call M.make() @c1;
    b = call M.make() @c2;
  }
  static method make() { x = new M @s; return x; }
}
"""

_HEAP = """
entry M.main;
class M {
  static method main() {
    h = new H @hs;
    v = new M @vs;
    h.f = v;
    w = h.f;
  }
}
class H { field f; }
"""


class TestCFLBasics:
    def test_direct_new(self):
        _, _, cfl = _setup(
            "entry M.main;\nclass M { static method main() { a = new M @s; } }"
        )
        assert cfl.points_to(VarNode("M.main", "a")) == {"s"}

    def test_copy_chain(self):
        _, _, cfl = _setup(
            "entry M.main;\nclass M { static method main() { a = new M @s; b = a; c = b; } }"
        )
        assert cfl.points_to(VarNode("M.main", "c")) == {"s"}

    def test_heap_alias_subquery(self):
        _, _, cfl = _setup(_HEAP)
        assert cfl.points_to(VarNode("M.main", "w")) == {"vs"}

    def test_balanced_call_parentheses(self):
        _, _, cfl = _setup(_FACTORY)
        assert cfl.points_to(VarNode("M.main", "a")) == {"s"}

    def test_unbalanced_entry_allowed(self):
        """Querying inside the callee sees flows from all callers."""
        _, _, cfl = _setup(_FACTORY)
        # x inside make() points to the local site regardless of context.
        assert cfl.points_to(VarNode("M.make", "x")) == {"s"}

    def test_mismatched_parentheses_rejected(self):
        """An identity function called from two sites must not mix its
        callers' objects: s1 flows only to a, s2 only to b."""
        _, _, cfl = _setup(
            """entry M.main;
            class M {
              static method main() {
                x1 = new M @s1;
                x2 = new M @s2;
                a = call M.id(x1) @c1;
                b = call M.id(x2) @c2;
              }
              static method id(p) { return p; }
            }"""
        )
        assert cfl.points_to(VarNode("M.main", "a")) == {"s1"}
        assert cfl.points_to(VarNode("M.main", "b")) == {"s2"}

    def test_context_sensitivity_beats_andersen(self):
        """The same query where Andersen says {s1, s2}."""
        src = """entry M.main;
        class M {
          static method main() {
            x1 = new M @s1;
            x2 = new M @s2;
            a = call M.id(x1) @c1;
            b = call M.id(x2) @c2;
          }
          static method id(p) { return p; }
        }"""
        prog = parse_program(src)
        graph = build_rta(prog)
        andersen = analyze(prog, graph)
        assert set(andersen.pts(VarNode("M.main", "a"))) == {"s1", "s2"}
        _, _, cfl = _setup(src)
        assert cfl.points_to(VarNode("M.main", "a")) == {"s1"}


class TestSoundnessAndBudget:
    def test_subset_of_andersen(self, figure1):
        """CFL answers refine (are contained in) the Andersen answers."""
        graph = build_rta(figure1)
        pag = PAG(figure1, graph)
        andersen = analyze(figure1, graph)
        cfl = CFLPointsTo(pag, fallback=andersen)
        for sig, name in pag.var_table:
            node = VarNode(sig, name)
            refined = cfl.points_to(node)
            assert refined <= set(andersen.pts(node)) or refined == set(
                andersen.pts(node)
            )

    def test_budget_exhaustion_raises(self):
        _, pag, _ = _setup(_HEAP)
        tight = CFLPointsTo(pag, budget=1)
        with pytest.raises(BudgetExhausted):
            tight.points_to_refined(VarNode("M.main", "w"))

    def test_budget_exhaustion_falls_back(self):
        _, pag, _ = _setup(_HEAP)
        tight = CFLPointsTo(pag, budget=1)
        # public API falls back to Andersen and still answers soundly
        assert tight.points_to(VarNode("M.main", "w")) == {"vs"}

    def test_alias_depth_limit(self):
        _, pag, _ = _setup(_HEAP)
        shallow = CFLPointsTo(pag, max_alias_depth=0)
        with pytest.raises(BudgetExhausted):
            shallow.points_to_refined(VarNode("M.main", "w"))

    def test_memoized_queries(self):
        _, _, cfl = _setup(_HEAP)
        first = cfl.points_to(VarNode("M.main", "w"))
        second = cfl.points_to(VarNode("M.main", "w"))
        assert first is second  # served from the memo table

    def test_may_alias(self):
        _, _, cfl = _setup(
            "entry M.main;\nclass M { static method main() { a = new M @s; b = a; } }"
        )
        assert cfl.may_alias(VarNode("M.main", "a"), VarNode("M.main", "b"))
