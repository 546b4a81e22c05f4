"""Tests for pointer-assignment graph construction, on its integer
tables."""

from repro.callgraph.rta import build_rta
from repro.lang import parse_program
from repro.pta.pag import DIR_ENTER, DIR_EXIT, PAG, RETURN_VAR

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    a = new A @sa;
    b = a;
    h = new Holder @sh;
    h.f = a;
    c = h.f;
    r = call a.identity(b) @c1;
  }
}
class A { method identity(x) { return x; } }
class Holder { field f; }
"""


def _pag():
    prog = parse_program(_SOURCE)
    return PAG(prog, build_rta(prog))


def _vid(pag, sig, name):
    return pag.var_index[(sig, name)]


def _names(pag, vids):
    return [pag.var_table[vid][1] for vid in vids]


class TestPAG:
    def test_new_edges(self):
        pag = _pag()
        mask = pag.new_mask[_vid(pag, "Main.main", "a")]
        assert [s for i, s in enumerate(pag.site_table) if mask >> i & 1] == [
            "sa"
        ]

    def test_copy_edge(self):
        pag = _pag()
        edges = pag.assigns_into[_vid(pag, "Main.main", "b")]
        assert "a" in _names(pag, [src for src, _, _ in edges])

    def test_store_edge(self):
        pag = _pag()
        assert len(pag.store_base) == 1
        assert pag.field_table[pag.store_field[0]] == "f"
        assert _names(pag, pag.store_base) == ["h"]

    def test_load_edge(self):
        pag = _pag()
        assert len(pag.load_base) == 1
        assert _names(pag, pag.load_target) == ["c"]

    def test_param_edge_labelled_enter(self):
        pag = _pag()
        edges = pag.assigns_into[_vid(pag, "A.identity", "x")]
        assert len(edges) == 1
        _, cid, direction = edges[0]
        assert direction == DIR_ENTER
        assert pag.callsite_table[cid] == "c1"

    def test_this_binding(self):
        pag = _pag()
        edges = pag.assigns_into[_vid(pag, "A.identity", "this")]
        assert _names(pag, [src for src, _, _ in edges]) == ["a"]

    def test_return_edge_labelled_exit(self):
        pag = _pag()
        edges = pag.assigns_into[_vid(pag, "Main.main", "r")]
        assert len(edges) == 1
        src, _, direction = edges[0]
        assert direction == DIR_EXIT
        assert src == _vid(pag, "A.identity", RETURN_VAR)

    def test_return_var_collects_returns(self):
        pag = _pag()
        edges = pag.assigns_into[_vid(pag, "A.identity", RETURN_VAR)]
        assert _names(pag, [src for src, _, _ in edges]) == ["x"]

    def test_loads_into_index(self):
        pag = _pag()
        loads = pag.loads_into[_vid(pag, "Main.main", "c")]
        assert [pag.field_table[pag.load_field[i]] for i in loads] == ["f"]

    def test_var_table(self):
        pag = _pag()
        names = {name for sig, name in pag.var_table if sig == "Main.main"}
        assert {"a", "b", "c", "h", "r"} <= names
        assert pag.var_index == {key: i for i, key in enumerate(pag.var_table)}
