"""Tests for the whole-program Andersen points-to solver.

The assertions run against the production solver (:func:`repro.pta.
analyze`, the flat kernel); every solve is also checked against the
dict-solver oracle's heap.
"""

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta import analyze
from repro.pta.pag import VarNode

from tests.pta import andersen_oracle


def _analyze(prog, callgraph):
    result = analyze(prog, callgraph)
    oracle = andersen_oracle.analyze(prog, callgraph)
    assert sorted(result.heap_points_to_pairs()) == sorted(
        oracle.heap_points_to_pairs()
    )
    return result


def _solve(source):
    prog = parse_program(source)
    return _analyze(prog, build_rta(prog))


def _pts(result, sig, var):
    return set(result.pts(VarNode(sig, var)))


class TestBasics:
    def test_new(self):
        result = _solve(
            "entry M.main;\nclass M { static method main() { a = new M @s; } }"
        )
        assert _pts(result, "M.main", "a") == {"s"}

    def test_copy_propagates(self):
        result = _solve(
            "entry M.main;\nclass M { static method main() { a = new M @s; b = a; c = b; } }"
        )
        assert _pts(result, "M.main", "c") == {"s"}

    def test_two_sites_merge(self):
        result = _solve(
            """entry M.main;
            class M { static method main() {
              a = new M @s1;
              if (*) { a = new M @s2; }
              b = a;
            } }"""
        )
        assert _pts(result, "M.main", "b") == {"s1", "s2"}

    def test_null_contributes_nothing(self):
        result = _solve(
            "entry M.main;\nclass M { static method main() { a = null; b = a; } }"
        )
        assert _pts(result, "M.main", "b") == set()


class TestHeap:
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

    def test_store_load_through_heap(self):
        result = _solve(self._HEAP)
        assert _pts(result, "M.main", "w") == {"vs"}

    def test_field_pts(self):
        result = _solve(self._HEAP)
        assert set(result.field_pts("hs", "f")) == {"vs"}

    def test_field_sensitivity(self):
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                h = new H @hs;
                v = new M @vs;
                u = new M @us;
                h.f = v;
                h.g = u;
                w = h.g;
              }
            }
            class H { field f; field g; }"""
        )
        assert _pts(result, "M.main", "w") == {"us"}

    def test_aliased_bases_share_fields(self):
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                h1 = new H @hs;
                h2 = h1;
                v = new M @vs;
                h1.f = v;
                w = h2.f;
              }
            }
            class H { field f; }"""
        )
        assert _pts(result, "M.main", "w") == {"vs"}

    def test_store_before_load_order_irrelevant(self):
        """Flow-insensitivity: the load textually precedes the store."""
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                h = new H @hs;
                w = h.f;
                v = new M @vs;
                h.f = v;
              }
            }
            class H { field f; }"""
        )
        assert _pts(result, "M.main", "w") == {"vs"}

    def test_heap_points_to_pairs(self):
        result = _solve(self._HEAP)
        assert ("hs", "f", "vs") in set(result.heap_points_to_pairs())


class TestInterprocedural:
    def test_param_passing(self):
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                a = new M @s;
                r = call M.id(a) @c;
              }
              static method id(x) { return x; }
            }"""
        )
        assert _pts(result, "M.main", "r") == {"s"}

    def test_this_points_to_receiver(self):
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                a = new A @sa;
                call a.m() @c;
              }
            }
            class A { method m() { t = this; } }"""
        )
        assert _pts(result, "A.m", "t") == {"sa"}

    def test_factory_merges_callers(self):
        """A context-insensitive analysis conflates two factory calls —
        the imprecision the CFL solver's context tracking addresses."""
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                a = call M.make() @c1;
                b = call M.make() @c2;
              }
              static method make() { x = new M @s; return x; }
            }"""
        )
        assert _pts(result, "M.main", "a") == {"s"}
        assert _pts(result, "M.main", "b") == {"s"}

    def test_may_alias(self):
        result = _solve(
            """entry M.main;
            class M {
              static method main() {
                a = new M @s1;
                b = a;
                c = new M @s2;
              }
            }"""
        )
        assert result.may_alias(VarNode("M.main", "a"), VarNode("M.main", "b"))
        assert not result.may_alias(VarNode("M.main", "a"), VarNode("M.main", "c"))

    def test_figure1_order_flow(self, figure1):
        result = _analyze(figure1, build_rta(figure1))
        # the Order flows into Customer.addOrder's parameter
        assert "a5" in set(result.pts(VarNode("Customer.addOrder", "y")))
        # and into the orders array's elem slot
        assert "a5" in set(result.field_pts("a34", "elem"))
