"""Unit suite for the integer-flat points-to kernel.

Covers the kernel-specific machinery the differential tests cannot see
from the outside: node interning determinism, SCC collapse (plain copy
cycles and cycles threaded through load/store edges share one
representative bitset) and the mask-table encoding.
"""

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.cfl import CFLPointsTo
from repro.pta.kernel import MaskTable, iter_bits, solve_flat
from repro.pta.pag import PAG, VarNode


def _pag(source):
    program = parse_program(source)
    return PAG(program, build_rta(program))


def _vid(pag, name, sig="Main.main"):
    return pag.var_index[(sig, name)]


_COPY_CYCLE = """
entry Main.main;
class Main {
  static method main() {
    a = new Item @s1;
    b = a;
    c = b;
    d = c;
    b = d;
    e = b;
  }
}
class Item { }
"""

_HEAP_CYCLE = """
entry Main.main;
class Main {
  static method main() {
    h = new Hub @hub;
    x = new Item @s1;
    h.f = x;
    y = h.f;
    h.f = y;
    z = y;
  }
}
class Hub { field f; }
class Item { }
"""


class TestSccCollapse:
    def test_copy_cycle_members_share_one_mask(self):
        pag = _pag(_COPY_CYCLE)
        result = solve_flat(pag)
        assert result.stats["sccs_collapsed"] >= 2  # b, c, d merge
        b, c, d = (VarNode("Main.main", n) for n in "bcd")
        assert result.pts(b) == result.pts(c) == result.pts(d) == {"s1"}
        reps = {result._var_reps[_vid(pag, n)] for n in "bcd"}
        assert len(reps) == 1, "cycle members must share one mask index"
        # ...and the shared frozenset is literally the same object.
        assert result.pts(b) is result.pts(c)

    def test_cycle_through_load_store_edges_collapses(self):
        """y = h.f; h.f = y forms slot(hub.f) <-> y: a copy cycle that
        only exists through complex edges.  The final collapse pass must
        merge it, so the variable and the heap slot answer from one
        representative bitset."""
        pag = _pag(_HEAP_CYCLE)
        result = solve_flat(pag)
        assert result.stats["sccs_collapsed"] >= 1
        y = VarNode("Main.main", "y")
        assert result.pts(y) == {"s1"}
        assert result.field_pts("hub", "f") == {"s1"}
        assert (
            result._slot_reps[("hub", "f")]
            == result._var_reps[_vid(pag, "y")]
        ), "heap-threaded cycle must share one mask index"

    def test_downstream_of_cycle_still_correct(self):
        result = solve_flat(_pag(_COPY_CYCLE))
        assert result.pts(VarNode("Main.main", "e")) == {"s1"}
        result = solve_flat(_pag(_HEAP_CYCLE))
        assert result.pts(VarNode("Main.main", "z")) == {"s1"}

    def test_acyclic_program_collapses_nothing(self):
        source = """
        entry Main.main;
        class Main {
          static method main() {
            a = new Item @s1;
            b = a;
            c = b;
          }
        }
        class Item { }
        """
        result = solve_flat(_pag(source))
        assert result.stats["sccs_collapsed"] == 0


class TestInterning:
    def test_solver_and_cfl_share_the_pag_interning(self):
        """The PAG is the one interning: the solve and the CFL traversal
        read its tables, with no copy of their own."""
        pag = _pag(_COPY_CYCLE)
        result = solve_flat(pag)
        assert result._var_index is pag.var_index
        assert result._site_table is pag.site_table
        cfl = CFLPointsTo(pag, fallback=result)
        assert cfl.pag is pag
        assert cfl.points_to(VarNode("Main.main", "e")) == {"s1"}

    def test_interning_is_deterministic(self):
        a = _pag(_COPY_CYCLE)
        b = _pag(_COPY_CYCLE)
        assert a.var_table == b.var_table
        assert a.site_table == b.site_table
        assert a.copy_src == b.copy_src
        assert a.copy_dst == b.copy_dst

    def test_stats_surface_kernel_shape(self):
        result = solve_flat(_pag(_HEAP_CYCLE))
        for key in (
            "nodes", "slot_nodes", "sites", "copy_edges",
            "bitset_bytes", "sccs_collapsed", "rounds",
        ):
            assert key in result.stats
        assert result.stats["nodes"] > 0
        assert result.stats["rounds"] >= 1


class TestMaskTable:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011)) == [0, 1, 3]

    def test_encode_decode_roundtrip(self):
        masks = [0, 1, (1 << 77) | 5, (1 << 200) - 1]
        table = MaskTable(ints=masks)
        offsets, blob = table.encode()
        decoded = MaskTable(offsets=offsets, blob=blob)
        assert len(decoded) == len(masks)
        for i, mask in enumerate(masks):
            assert decoded.mask(i) == mask
        assert decoded.nbytes() == len(blob)


