"""The summaries' CAPTURED class against the method-escape oracle.

The detector's escape knowledge is
:meth:`~repro.core.summaries.ProgramSummaries.captured_sites`: sites
never stored, returned or exported by any method, callees included.
The intraprocedural closure of :mod:`tests.pta.escape_oracle` is the
classic analysis it replaced.  Where both see the whole story they
agree; where the oracle gives up at a call (an argument or receiver
"might be stored"), the summaries look into the callee and are strictly
more precise.  They never capture less than the oracle.
"""

import pytest

from repro.bench.apps import build_app, corpus_names
from repro.callgraph.rta import build_rta
from repro.core.summaries import ProgramSummaries
from repro.lang import parse_program
from repro.pta.pag import PAG
from tests.pta.escape_oracle import analyze_escape


def _classify(program):
    """``(captured_sites(), oracle result)`` for ``program``."""
    callgraph = build_rta(program)
    captured = ProgramSummaries.build(program, callgraph).captured_sites()
    return captured, analyze_escape(program, PAG(program, callgraph))


def _escape(source):
    return _classify(parse_program(source))


class TestEscape:
    def test_local_object_captured(self):
        captured, oracle = _escape(
            """entry M.main;
            class M { static method main() { a = new M @local; b = a; } }"""
        )
        assert "local" in captured
        assert "local" in oracle.captured

    def test_stored_object_escapes(self):
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() {
                h = new H @holder;
                a = new M @stored;
                h.f = a;
              }
            }
            class H { field f; }"""
        )
        assert "stored" not in captured
        assert oracle.escapes("stored")

    def test_returned_object_escapes(self):
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() { r = call M.make() @c; }
              static method make() { x = new M @made; return x; }
            }"""
        )
        assert "made" not in captured
        assert oracle.escapes("made")

    def test_argument_escapes(self):
        """Passing to a callee escapes the oracle — the callee might
        store it — but the summaries see that ``consume`` keeps
        nothing, so the site stays captured."""
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() {
                a = new M @passed;
                call M.consume(a) @c;
              }
              static method consume(x) { return; }
            }"""
        )
        assert oracle.escapes("passed")
        assert "passed" in captured

    def test_receiver_escapes(self):
        """A call receiver escapes the oracle; ``m`` never stores
        ``this``, so the summaries keep it captured."""
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() {
                a = new A @recv;
                call a.m() @c;
              }
            }
            class A { method m() { return; } }"""
        )
        assert oracle.escapes("recv")
        assert "recv" in captured

    def test_escape_through_copy_chain(self):
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() {
                h = new H @holder;
                a = new M @chained;
                b = a;
                c = b;
                h.f = c;
              }
            }
            class H { field f; }"""
        )
        assert "chained" not in captured
        assert oracle.escapes("chained")

    def test_holder_itself_escapes_via_store_base(self):
        """The holder is used as a store base only — that alone does not
        leak a reference OUT of the frame, so it remains captured."""
        captured, oracle = _escape(
            """entry M.main;
            class M {
              static method main() {
                h = new H @holder;
                a = new M @stored;
                h.f = a;
              }
            }
            class H { field f; }"""
        )
        assert "holder" in captured
        assert not oracle.escapes("holder")

    def test_figure1_classification(self, figure1):
        captured, oracle = _classify(figure1)
        # the Order is passed to process/addOrder and stored: escapes
        assert "a5" not in captured
        assert oracle.escapes("a5")
        # the Transaction is only ever a call receiver: the oracle gives
        # up at the calls, the summaries see no method stores ``this``
        assert oracle.escapes("a2")
        assert "a2" in captured

    def test_every_site_classified(self, figure1):
        captured, oracle = _classify(figure1)
        all_sites = {s.label for s in figure1.alloc_sites()}
        assert captured <= all_sites
        assert oracle.escaping | oracle.captured == all_sites
        assert not (oracle.escaping & oracle.captured)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_oracle_captured_subset_of_summaries(name):
    """On every corpus app, whatever the oracle proves captured the
    summaries prove captured too."""
    captured, oracle = _classify(build_app(name).program)
    assert oracle.captured <= captured
