"""Unit suite for the integer-flat points-to kernel.

Covers the kernel-specific machinery the differential tests cannot see
from the outside: node interning determinism, offline variable
substitution (single-inflow variables merge into their source before
solving, and an entry-less ring of them terminates), SCC collapse (copy
cycles and cycles threaded through load/store edges share one
representative bitset) and the mask-table encoding.
"""

import threading

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.cfl import CFLPointsTo
from repro.pta.kernel import MaskTable, iter_bits, solve_flat
from repro.pta.pag import PAG, VarNode


def _pag(source, validate=True):
    program = parse_program(source, validate=validate)
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

#: b, c and d form a copy cycle in which every member has a second
#: inflow from outside it, so substitution merges none of them and only
#: Tarjan can collapse the cycle.
_TWO_INFLOW_CYCLE = """
entry Main.main;
class Main {
  static method main() {
    a = new Item @s1;
    x = new Item @s2;
    y = new Item @s3;
    b = a;
    c = b;
    d = c;
    b = d;
    c = x;
    d = y;
  }
}
class Item { }
"""

#: An entry-less ring of single-inflow variables beside a plain chain;
#: definite assignment rejects it, so it parses only unvalidated.
_ENTRYLESS_RING = """
entry Main.main;
class Main {
  static method main() {
    a = b;
    b = c;
    c = a;
    o = new Item @s1;
    d = o;
  }
}
class Item { }
"""


def _solve_in_time(pag, seconds=30):
    """``solve_flat(pag)`` on a daemon thread, failing (not hanging) if
    it has not finished within ``seconds``."""
    solved = []
    worker = threading.Thread(
        target=lambda: solved.append(solve_flat(pag)), daemon=True
    )
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), "the solve must finish"
    (result,) = solved
    return result


class TestSubstitution:
    def test_entryless_ring_terminates_and_points_nowhere(self):
        result = _solve_in_time(_pag(_ENTRYLESS_RING, validate=False))
        for name in "abc":
            assert result.pts(VarNode("Main.main", name)) == frozenset()
        assert result.pts(VarNode("Main.main", "d")) == {"s1"}

    def test_entryless_ring_merges_into_one_set(self):
        pag = _pag(_ENTRYLESS_RING, validate=False)
        result = _solve_in_time(pag)
        # a into b and b into c; c's inflow is then internal.  d into o.
        assert result.stats["substituted"] == 3
        assert result.stats["sccs_collapsed"] == 0
        reps = {result._var_reps[_vid(pag, n)] for n in "abc"}
        assert len(reps) == 1

    def test_new_and_load_targets_are_never_merged(self):
        """``x`` has one copy inflow but is also assigned by ``new``, and
        ``y`` has one copy inflow but is also a load target: each keeps
        its own mask, whose set is more than its copy source's."""
        source = """
        entry Main.main;
        class Main {
          static method main() {
            h = new Hub @hub;
            a = new Item @s1;
            x = new Item @s2;
            x = a;
            b = new Item @s3;
            h.f = b;
            y = h.f;
            y = a;
          }
        }
        class Hub { field f; }
        class Item { }
        """
        pag = _pag(source)
        result = solve_flat(pag)
        assert result.stats["substituted"] == 0
        assert result.pts(VarNode("Main.main", "x")) == {"s1", "s2"}
        assert result.pts(VarNode("Main.main", "y")) == {"s1", "s3"}
        reps = {result._var_reps[_vid(pag, n)] for n in ("a", "x", "y")}
        assert len(reps) == 3


class TestSccCollapse:
    def test_copy_cycle_members_share_one_mask(self):
        pag = _pag(_COPY_CYCLE)
        result = solve_flat(pag)
        # c, d and e each have one inflow, so substitution merges them
        # into b before the solve and Tarjan finds no cycle left.
        assert result.stats["substituted"] >= 3
        b, c, d = (VarNode("Main.main", n) for n in "bcd")
        assert result.pts(b) == result.pts(c) == result.pts(d) == {"s1"}
        reps = {result._var_reps[_vid(pag, n)] for n in "bcd"}
        assert len(reps) == 1, "cycle members must share one mask index"
        # ...and the shared frozenset is literally the same object.
        assert result.pts(b) is result.pts(c)

    def test_two_inflow_cycle_collapses_in_tarjan(self):
        pag = _pag(_TWO_INFLOW_CYCLE)
        result = solve_flat(pag)
        assert result.stats["substituted"] == 0
        assert result.stats["sccs_collapsed"] >= 2  # b, c, d merge
        b, c, d = (VarNode("Main.main", n) for n in "bcd")
        assert result.pts(b) == result.pts(c) == result.pts(d)
        assert result.pts(b) == {"s1", "s2", "s3"}
        reps = {result._var_reps[_vid(pag, n)] for n in "bcd"}
        assert len(reps) == 1, "cycle members must share one mask index"

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
            "bitset_bytes", "substituted", "sccs_collapsed", "rounds",
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


